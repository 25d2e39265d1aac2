// Package lint is icrvet's analysis engine: a standard-library-only static
// analyzer (go/ast, go/parser, go/types) that enforces the repository's
// determinism, pooling, allocation and context invariants. Six passes run
// over the whole module, sharing one type-checked load and (for the
// reachability-based passes) one static call graph. Each holds an
// invariant that neither `go vet` nor a run-time test checks (copied
// locks are go vet's copylocks check, so no pass repeats it):
//
//   - determinism: wall-clock time, global math/rand, and order-dependent
//     map iteration in the simulation packages (internal/sim, its import
//     closure, internal/experiments and internal/reliability)
//   - floatorder: floating-point accumulation fed by map iteration order
//   - droppederr: discarded error returns, module-wide
//   - resetcoverage: every field of an //icrvet:pooled type must be
//     assigned in its Reset or be declared //icrvet:persistent — a missed
//     field is cross-run state contamination through the instance pool
//   - allocfree: no allocation-inducing constructs in functions statically
//     reachable from the simulator's steady-state loop
//   - ctxflow: context.Context plumbing discipline (the time.Sleep rule
//     only in the serving, runner and store layers)
//
// Findings can be suppressed with a justified directive on the flagged
// line or the line above:
//
//	//icrvet:ignore <pass>[,<pass>...] <reason>
//
// A malformed directive (unknown pass, missing reason) is itself a finding
// and cannot be suppressed — and so is a directive that suppresses
// nothing: stale suppressions rot into blanket permission slips unless
// they are forced to justify their existence on every run.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// A Finding is one diagnostic: a position, the pass that produced it, and
// a message.
type Finding struct {
	Pass    string
	Pos     token.Position
	Message string
}

// String renders the finding as "path:line:col: [pass] message" with the
// path relative to root (when possible) using forward slashes.
func (f Finding) String() string {
	return f.Relative("")
}

// Relative renders the finding with its file path relative to root.
func (f Finding) Relative(root string) string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		relName(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Pass, f.Message)
}

// relName renders a file path relative to root (when possible) with
// forward slashes.
func relName(root, name string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return filepath.ToSlash(name)
}

// An Analysis is the shared state of one engine run: the loaded module,
// the parsed directive index, and a lazily built static call graph. It is
// read-only while passes execute, so every pass (and every per-package
// shard of a pass) can use it concurrently.
type Analysis struct {
	Mod  *Module
	dirs *directives

	cgOnce sync.Once
	cg     *callGraph
}

// graph returns the module's static call graph, building it on first use.
func (a *Analysis) graph() *callGraph {
	a.cgOnce.Do(func() { a.cg = buildCallGraph(a.Mod) })
	return a.cg
}

// A Pass is one analysis. Exactly one of Package and Module is set:
// Package passes are sharded one work item per package and run
// concurrently; Module passes need a whole-module view (call graph, cross-
// package struct coverage) and run as a single item alongside the shards.
type Pass struct {
	Name string
	Doc  string

	Package func(a *Analysis, pkg *Package, r *Reporter)
	Module  func(a *Analysis, r *Reporter)
}

// Passes returns the analyses in their canonical order.
func Passes() []Pass {
	return []Pass{
		{Name: "determinism", Doc: "wall-clock, global rand, and map-order dependence in simulation packages", Package: runDeterminism},
		{Name: "floatorder", Doc: "float accumulation in map-iteration order", Package: runFloatOrder},
		{Name: "droppederr", Doc: "discarded error returns", Package: runDroppedErr},
		{Name: "resetcoverage", Doc: "pooled types must Reset every field or declare it persistent", Module: runResetCoverage},
		{Name: "allocfree", Doc: "no allocation in functions reachable from the steady-state loop", Module: runAllocFree},
		{Name: "ctxflow", Doc: "context.Context plumbing discipline", Package: runCtxFlow},
	}
}

// PassNames returns the valid pass names (canonical order).
func PassNames() []string {
	ps := Passes()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// hotPaths is the determinism scope: the module-relative directories
// whose behaviour must be a pure function of (Machine, Run) for results
// to be reproducible and memoizable. It is the import closure of
// internal/sim plus the experiment drivers and the reliability model.
var hotPaths = []string{
	"internal/adapt", "internal/branch", "internal/cache", "internal/config",
	"internal/core", "internal/cpu", "internal/ecc", "internal/energy",
	"internal/experiments", "internal/fault", "internal/isa",
	"internal/metrics", "internal/rcache", "internal/reliability",
	"internal/sim", "internal/tier", "internal/workload",
}

// workItem is one schedulable unit: a package shard of a Package pass, or
// the single whole-module item of a Module pass.
type workItem struct {
	pass Pass
	pkg  *Package // nil for Module passes
}

// Run executes every pass over an already loaded module. Work is sharded
// per (pass, package) and runs on up to GOMAXPROCS goroutines; each shard
// reports into its own Reporter and the shards are merged and sorted at
// the end, so the output is independent of scheduling. It returns the
// surviving (unsuppressed) findings sorted by position; malformed or
// unused suppression directives are reported under the "directive"
// pseudo-pass.
func Run(mod *Module) []Finding {
	a := &Analysis{Mod: mod, dirs: collectDirectives(mod)}

	var items []workItem
	for _, p := range Passes() {
		if p.Package != nil {
			for _, pkg := range mod.Packages {
				items = append(items, workItem{pass: p, pkg: pkg})
			}
		} else {
			items = append(items, workItem{pass: p})
		}
	}

	shards := make([]*Reporter, len(items))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it workItem) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := &Reporter{
				mod: mod, pass: it.pass.Name,
				dirs: a.dirs, used: make(map[*directive]bool),
			}
			shards[i] = r
			if it.pkg != nil {
				it.pass.Package(a, it.pkg, r)
			} else {
				it.pass.Module(a, r)
			}
		}(i, it)
	}
	wg.Wait()

	var findings []Finding
	used := make(map[*directive]bool)
	for _, r := range shards {
		findings = append(findings, r.findings...)
		for d := range r.used {
			used[d] = true
		}
	}
	findings = append(findings, a.dirs.problems...)
	findings = append(findings, unusedDirectives(a.dirs, used)...)

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
	return findings
}

// unusedDirectives flags every suppression that suppressed nothing.
func unusedDirectives(dirs *directives, used map[*directive]bool) []Finding {
	var out []Finding
	for _, d := range dirs.all {
		if used[d] {
			continue
		}
		out = append(out, Finding{
			Pass: "directive", Pos: d.pos,
			Message: fmt.Sprintf("//icrvet:ignore %s suppresses nothing: no such finding on this or the next line; delete the stale directive",
				strings.Join(d.passes, ",")),
		})
	}
	return out
}

// Reporter collects findings for one work item (one pass over one package,
// or one module-level pass) and applies suppression directives. Each shard
// has its own Reporter, so passes never contend on it.
type Reporter struct {
	mod      *Module
	pass     string
	findings []Finding
	dirs     *directives
	used     map[*directive]bool
}

// Reportf records a finding for the current pass at pos unless a valid
// directive suppresses it, in which case the directive is marked used.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.mod.Fset.Position(pos)
	if ds := r.dirs.suppressing(r.pass, p); len(ds) > 0 {
		for _, d := range ds {
			r.used[d] = true
		}
		return
	}
	r.findings = append(r.findings, Finding{Pass: r.pass, Pos: p, Message: fmt.Sprintf(format, args...)})
}

// inScope reports whether a package's module-relative directory falls under
// one of the given prefixes.
func inScope(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}
