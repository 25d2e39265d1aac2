// Quickstart: build the paper's Table 1 machine, run one benchmark under
// the parity baseline and under ICR-P-PS(S), and compare the reliability
// and performance metrics — the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run simulates both schemes and writes the comparison to w.
func run(w io.Writer) error {
	machine := config.Default() // the paper's Table 1 configuration

	// A baseline: parity-protected dL1, 1-cycle loads, no replication.
	base := config.NewRun("gzip", core.BaseP())
	base.Instructions = 500_000
	baseRep, err := sim.Simulate(machine, base)
	if err != nil {
		return err
	}

	// ICR-P-PS(S): replicate blocks into dead lines on every store; keep
	// parity everywhere; consult the replica only when parity fails.
	icr := config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	icr.Instructions = 500_000
	icr.Repl = core.ReplConfig{
		Distances:   core.VerticalDistances(machine.DL1Sets()),
		Replicas:    1,
		Victim:      core.DeadOnly,
		DecayWindow: 0, // most aggressive: a block is dead right after its access
	}
	icrRep, err := sim.Simulate(machine, icr)
	if err != nil {
		return err
	}

	slowdown := float64(icrRep.Cycles)/float64(baseRep.Cycles) - 1
	_, err = fmt.Fprintf(w, "=== BaseP ===\n%s\n=== ICR-P-PS(S) ===\n%s\n"+
		"ICR performance cost over BaseP: %+.1f%%\n"+
		"Read hits that had a replica available: %.1f%%\n\n"+
		"That is the paper's headline: near-baseline performance with a\n"+
		"redundant in-cache copy standing behind most of the data loads.\n",
		baseRep.String(), icrRep.String(), 100*slowdown, 100*icrRep.LoadsWithReplica())
	return err
}
