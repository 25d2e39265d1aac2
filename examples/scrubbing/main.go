// Scrubbing + vulnerability demo: composes the paper's schemes with a
// Saleh-style background scrubber and the Kim & Somani duplication-cache
// baseline, then reports two complementary reliability views:
//
//  1. unrecoverable loads under aggressive random error injection, and
//  2. the injection-free vulnerability measure — the fraction of
//     line-cycles spent holding dirty data protected only by parity.
//
// Usage: go run ./examples/scrubbing [benchmark]
package main

import (
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scrubbing:", err)
		os.Exit(1)
	}
}

func run() error {
	bench := "vortex"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	machine := config.Default()
	lines := machine.DL1Sets() * machine.DL1Assoc
	const instructions = 300_000

	type variant struct {
		label string
		mut   func(*config.Run)
	}
	icr := core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores)
	variants := []variant{
		{"BaseP", func(r *config.Run) { r.Scheme = core.BaseP() }},
		{"BaseP + scrub(1k)", func(r *config.Run) {
			r.Scheme = core.BaseP()
			r.ScrubInterval = 1000
		}},
		{"BaseP + 2KB r-cache", func(r *config.Run) {
			r.Scheme = core.BaseP()
			r.DupCacheKB = 2
		}},
		{"ICR-P-PS(S)", func(r *config.Run) { r.Scheme = icr }},
		{"ICR-P-PS(S) + scrub(1k)", func(r *config.Run) {
			r.Scheme = icr
			r.ScrubInterval = 1000
		}},
		{"BaseECC", func(r *config.Run) { r.Scheme = core.BaseECC(false) }},
	}

	fmt.Printf("reliability composition on %s (P(err)=1e-3/cycle, random model)\n\n", bench)
	fmt.Printf("%-26s %10s %10s %10s %12s %12s\n",
		"variant", "lost", "scrubFix", "scrubLost", "vuln-frac", "cycles")
	for _, v := range variants {
		r := config.NewRun(bench, core.BaseP())
		r.Instructions = instructions
		r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
		r.Repl.DecayWindow = 1000
		r.Repl.Victim = core.DeadFirst
		v.mut(&r)
		rep, err := sim.Simulate(machine, r)
		if err != nil {
			return err
		}
		fmt.Printf("%-26s %10d %10d %10d %12.6f %12d\n",
			v.label, rep.UnrecoverableLoads, rep.ScrubRepaired, rep.ScrubLost,
			rep.VulnerabilityPerLine(lines), rep.Cycles)
	}
	fmt.Println("\n'lost' counts demand loads that found dirty data destroyed;")
	fmt.Println("'scrubLost' is the same loss caught early by the sweeper. The")
	fmt.Println("vulnerability fraction is an injection-free view of the same risk:")
	fmt.Println("ICR shrinks it toward BaseECC's zero at parity-level load latency.")
	return nil
}
