# Convenience targets for the ICR reproduction. Everything is plain
# standard-library Go; the module is fully offline.

GO ?= go

.PHONY: all build test vet lint race fuzz bench evaluate figures ci clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# icrvet: the repo's own static analyzer (internal/lint). Enforces the
# determinism, concurrency, pooling, allocation, wire-coverage, and
# context invariants the parallel/distributed runner depends on; see
# DESIGN.md "Invariants". CI runs the same binary with -json to archive
# a machine-readable report (scripts/ci.sh).
lint:
	$(GO) run ./cmd/icrvet ./...

test: vet lint
	$(GO) test ./...

# Race-detector pass over the concurrency-bearing packages: the parallel
# runner, the experiment drivers that fan out through it, the persistent
# store, the HTTP serving layer, and the CLIs.
race:
	$(GO) test -race ./internal/runner ./internal/experiments ./internal/sim \
		./internal/store ./internal/serve ./internal/cliflag \
		./cmd/...

# Short fuzz pass over every Fuzz* target in the module, 10s each.
# Targets are found with `go test -list`, so a new one joins on its own.
fuzz:
	@for pkg in $$($(GO) list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for t in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "==> $$pkg $$t"; \
			$(GO) test -run=NONE -fuzz="^$$t\$$" -fuzztime=10s $$pkg || exit 1; \
		done; \
	done

# Benchmark baseline: micro-benches over the hot packages (sim kernel,
# ICR cache, OoO core) plus the per-figure harness, captured as a
# machine-readable BENCH_<date>.json (ns/op, allocs/op, instr/s). Set
# BENCHTIME to trade precision for runtime; pass a previous file through
# scripts/bench.sh -baseline to embed speedups.
bench:
	./scripts/bench.sh -o BENCH_$$(date +%F).json

# Regenerate the paper's evaluation at the default budget (tables + CSV).
evaluate:
	$(GO) run ./cmd/icrbench -fig all -out results

# Regenerate tables, CSVs, and SVG figures.
figures:
	$(GO) run ./cmd/icrbench -fig all -out results -svg figures

# Full tier-1 verification in one command: build, vet, icrvet, tests,
# race, and the end-to-end icrd smoke test.
ci:
	./scripts/ci.sh

clean:
	rm -rf results figures test_output.txt bench_output.txt
