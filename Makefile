# Convenience targets for the ICR reproduction. Everything is plain
# standard-library Go; the module is fully offline.

GO ?= go

.PHONY: all build test vet lint race fuzz evaluate figures ci clean

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
# store, the HTTP serving layer, and the CLIs. The explicit timeout covers
# the detector's 10-20x slowdown on the heavier packages (experiments,
# sim) on a single-core host. scripts/ci.sh runs this target.
race:
	$(GO) test -race -timeout 30m ./internal/runner ./internal/experiments ./internal/sim \
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

# Regenerate the paper's evaluation (tables + CSV), each file with the
# command that recorded it; scripts/results.sh holds those commands.
evaluate:
	GO=$(GO) ./scripts/results.sh results

# Regenerate tables, CSVs, and SVG figures.
figures:
	GO=$(GO) ./scripts/results.sh results figures

# Full tier-1 verification in one command: build, vet, icrvet, tests, a
# perf smoke run, the committed-results check, race, and the end-to-end
# icrd stages.
ci:
	./scripts/ci.sh

clean:
	rm -rf results figures test_output.txt
