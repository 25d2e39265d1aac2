// Command icrvet statically enforces the repository's determinism,
// pooling, allocation and context invariants. It is built entirely on the
// standard library (go/ast, go/parser, go/types): the module stays offline
// and dependency-free.
//
// Six passes run over the whole module containing the working directory
// (or -C dir); each holds an invariant neither go vet nor a run-time test
// checks:
//
//	determinism    wall-clock time, global math/rand, and order-dependent
//	               map iteration in internal/sim, its import closure,
//	               internal/experiments and internal/reliability
//	floatorder     float accumulation in map-iteration order
//	droppederr     discarded error returns
//	resetcoverage  //icrvet:pooled types Reset every field or declare it
//	               //icrvet:persistent
//	allocfree      no allocation in code reachable from the steady-state
//	               loop ((*cpu.Core).Run/RunWarming and //icrvet:hot roots)
//	ctxflow        context.Context plumbing discipline
//
// icrvet takes no arguments. Findings print as "path:line:col: [pass]
// message" and make the process exit 1; load or usage errors exit 2.
// Suppress a finding with a justified directive on the flagged line or the
// line above:
//
//	//icrvet:ignore <pass>[,<pass>...] <reason>
//
// An ignore directive that suppresses nothing is itself a finding. The
// annotation directives //icrvet:pooled, //icrvet:persistent <reason>, and
// //icrvet:hot <reason> feed the resetcoverage and allocfree passes.
//
// Examples:
//
//	icrvet
//	icrvet -list
//	icrvet -C internal/lint/testdata/determinism
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("icrvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list = fs.Bool("list", false, "list passes and exit")
		dir  = fs.String("C", ".", "analyze the module at or above this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "icrvet: takes no arguments (got %q); it always analyzes the whole module\n", fs.Args())
		return 2
	}
	if *list {
		for _, p := range lint.Passes() {
			fmt.Fprintf(stdout, "%-13s %s\n", p.Name, p.Doc)
		}
		return 0
	}
	mod, err := lint.Load(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "icrvet:", err)
		return 2
	}
	findings := lint.Run(mod)
	for _, f := range findings {
		fmt.Fprintln(stdout, f.Relative(mod.Root))
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "icrvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
