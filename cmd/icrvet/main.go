// Command icrvet statically enforces the repository's determinism and
// concurrency invariants. It is built entirely on the standard library
// (go/ast, go/parser, go/types): the module stays offline and
// dependency-free.
//
// Seven passes run over the module containing the given packages:
//
//	determinism    wall-clock time, global math/rand, and order-dependent
//	               map iteration in the simulation hot path
//	syncmisuse     copied locks/atomics; misaligned 64-bit atomics
//	floatorder     float accumulation in map-iteration order
//	droppederr     discarded errors in cmd/ and the error-critical layers
//	resetcoverage  //icrvet:pooled types Reset every field or declare it
//	               //icrvet:persistent
//	allocfree      no allocation in code reachable from the steady-state
//	               loop ((*cpu.Core).Run/RunWarming and //icrvet:hot roots)
//	ctxflow        context.Context plumbing discipline
//
// Findings print as "path:line:col: [pass] message" and make the process
// exit 1; load or usage errors exit 2. With -json, findings are printed
// instead as one versioned JSON document (see lint.JSONReport) on stdout —
// exit codes are unchanged, so CI can both archive the artifact and gate
// on it. Suppress a finding with a justified directive on the flagged line
// or the line above:
//
//	//icrvet:ignore <pass>[,<pass>...] <reason>
//
// An ignore directive that suppresses nothing is itself a finding. The
// annotation directives //icrvet:pooled, //icrvet:persistent <reason>, and
// //icrvet:hot <reason> feed the resetcoverage and allocfree passes.
//
// Examples:
//
//	icrvet ./...
//	icrvet -passes determinism,droppederr ./...
//	icrvet -json ./... > icrvet.json
//	icrvet internal/sim/...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("icrvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		passes  = fs.String("passes", "", "comma-separated pass subset (default: all)")
		list    = fs.Bool("list", false, "list passes and exit")
		dir     = fs.String("C", "", "change to this directory before resolving patterns")
		jsonOut = fs.Bool("json", false, "emit findings as a versioned JSON report on stdout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, p := range lint.Passes() {
			fmt.Fprintf(stdout, "%-12s %s\n", p.Name, p.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	base := *dir
	if base == "" {
		base = "."
	}
	var opts lint.Options
	if *passes != "" {
		opts.Passes = strings.Split(*passes, ",")
	}
	findings, root, err := analyze(base, patterns, opts)
	if err != nil {
		fmt.Fprintln(stderr, "icrvet:", err)
		return 2
	}
	if *jsonOut {
		data, err := lint.NewJSONReport(root, opts.Passes, findings).Encode()
		if err != nil {
			fmt.Fprintln(stderr, "icrvet:", err)
			return 2
		}
		if _, err := stdout.Write(data); err != nil {
			fmt.Fprintln(stderr, "icrvet:", err)
			return 2
		}
		if len(findings) > 0 {
			fmt.Fprintf(stderr, "icrvet: %d finding(s)\n", len(findings))
			return 1
		}
		return 0
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f.Relative(root))
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "icrvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// analyze loads the module at or above base, runs the passes, and filters
// findings to files under the directories named by the patterns.
func analyze(base string, patterns []string, opts lint.Options) ([]lint.Finding, string, error) {
	mod, err := lint.Load(base)
	if err != nil {
		return nil, "", err
	}
	findings, err := lint.Run(mod, opts)
	if err != nil {
		return nil, "", err
	}

	// Resolve each pattern to an absolute directory prefix ("dir/..."
	// and "dir" both mean the subtree rooted at dir).
	var prefixes []string
	for _, p := range patterns {
		p = strings.TrimSuffix(p, "...")
		p = strings.TrimSuffix(p, "/")
		if p == "" || p == "." {
			prefixes = nil // whole module
			break
		}
		abs, err := filepath.Abs(filepath.Join(base, p))
		if err != nil {
			return nil, "", err
		}
		prefixes = append(prefixes, abs)
	}
	if prefixes == nil {
		return findings, mod.Root, nil
	}
	var kept []lint.Finding
	for _, f := range findings {
		for _, pre := range prefixes {
			if f.Pos.Filename == pre || strings.HasPrefix(f.Pos.Filename, pre+string(filepath.Separator)) {
				kept = append(kept, f)
				break
			}
		}
	}
	return kept, mod.Root, nil
}
