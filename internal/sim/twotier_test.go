package sim

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
)

// TestTwoTierReportGating pins the schema contract: the TwoTier block (and
// with it report schema 4) appears only when the run protects the tier or
// prices memory traffic — every pre-existing run marshals exactly as
// before.
func TestTwoTierReportGating(t *testing.T) {
	m := config.Default()
	r := config.NewRun("gzip", core.BaseP())
	r.Instructions = 50_000

	rep, err := Simulate(m, r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TwoTier != nil {
		t.Fatal("single-tier run grew a TwoTier block")
	}

	// Memory pricing alone is enough: the block carries the memory-tier
	// accounting even over a plain timing L2.
	priced := r
	priced.Energy = priced.Energy.WithMemoryCosts(18.0, 19.5)
	rep, err = Simulate(m, priced)
	if err != nil {
		t.Fatal(err)
	}
	tt := rep.TwoTier
	if tt == nil {
		t.Fatal("memory-priced run has no TwoTier block")
	}
	if tt.Tier != "off" {
		t.Errorf("tier name = %q, want \"off\" (plain timing L2)", tt.Tier)
	}
	// A short run may never write back a dirty L2 line, so only the read
	// side is guaranteed traffic.
	if tt.MemReads == 0 || tt.EnergyMem == 0 {
		t.Errorf("memory accounting empty: %d reads / %.1f nJ", tt.MemReads, tt.EnergyMem)
	}
	if got := rep.TotalEnergy(); got <= rep.EnergyL1+rep.EnergyL2+rep.EnergyChecks+rep.EnergyRCache-1e-9 {
		t.Error("TotalEnergy does not include the memory tier")
	}
}

// TestTwoTierProtectedRun drives a fully protected tier — replication,
// cross-tier placement, faults injected at both tiers — and checks the
// block's reliability ledger is live and internally consistent.
func TestTwoTierProtectedRun(t *testing.T) {
	m := config.Default()
	sets := m.DL1Sets()
	r := config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Instructions = 200_000
	r.Repl = core.ReplConfig{
		Distances:   core.VerticalDistances(sets),
		Replicas:    1,
		Victim:      core.DeadFirst,
		DecayWindow: 1000,
	}
	r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
	r.TwoTier = config.TwoTier{
		Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst,
		DecayWindow: 1000, CrossTier: true,
		Fault: config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 13},
	}

	rep, err := Simulate(m, r)
	if err != nil {
		t.Fatal(err)
	}
	tt := rep.TwoTier
	if tt == nil {
		t.Fatal("protected run has no TwoTier block")
	}
	if tt.Tier != "ICR-P+x" {
		t.Errorf("tier name = %q, want \"ICR-P+x\"", tt.Tier)
	}
	if tt.ReplAttempts == 0 {
		t.Error("tier never attempted replication")
	}
	if tt.ErrorsInjected == 0 {
		t.Error("no tier errors injected at prob 1e-3")
	}
	recovered := tt.RecoveredByReplica + tt.RecoveredByECC + tt.RecoveredByCross + tt.RecoveredByMem
	if tt.ErrorsDetected != recovered+tt.UnrecoverableDirty {
		t.Errorf("recovery ledger does not balance: detected %d, recovered %d, lost %d",
			tt.ErrorsDetected, recovered, tt.UnrecoverableDirty)
	}
	if tt.CrossAccepted > tt.CrossOffers {
		t.Errorf("cross accepts (%d) exceed offers (%d)", tt.CrossAccepted, tt.CrossOffers)
	}

	// Determinism: the identical run replays to the identical block.
	rep2, err := Simulate(m, r)
	if err != nil {
		t.Fatal(err)
	}
	if *rep2.TwoTier != *tt {
		t.Errorf("two-tier run not deterministic:\n got %+v\nwant %+v", *rep2.TwoTier, *tt)
	}
}

// TestTwoTierValidation: malformed tier configs are rejected before any
// simulation happens.
func TestTwoTierValidation(t *testing.T) {
	m := config.Default()
	r := config.NewRun("gzip", core.BaseP())
	r.TwoTier = config.TwoTier{Replicate: true} // replication needs a detector
	if _, err := Simulate(m, r); err == nil {
		t.Error("replicate-without-protect accepted")
	}
}

// TestSimulateRejectsBadFault: a run-level fault configuration the
// injector cannot run is an error from SimulateContext, not a panic deep
// inside the injector.
func TestSimulateRejectsBadFault(t *testing.T) {
	m := config.Default()
	for _, tc := range []struct {
		name  string
		fc    config.FaultConfig
		valid bool
	}{
		{"off", config.FaultConfig{}, true},
		{"off-without-model", config.FaultConfig{Seed: 3}, true},
		{"random", config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 3}, true},
		{"certain", config.FaultConfig{Model: fault.Direct, Prob: 1, Seed: 3}, true},
		{"prob-without-model", config.FaultConfig{Prob: 1e-3, Seed: 3}, false},
		{"unknown-model", config.FaultConfig{Model: fault.Model(99), Prob: 1e-3}, false},
		{"prob-above-one", config.FaultConfig{Model: fault.Random, Prob: 2}, false},
		{"negative-prob", config.FaultConfig{Model: fault.Random, Prob: -1e-3}, false},
		{"nan-prob", config.FaultConfig{Model: fault.Random, Prob: math.NaN()}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := config.NewRun("gzip", core.BaseP())
			r.Instructions = 2000
			r.Fault = tc.fc
			_, err := Simulate(m, r)
			if tc.valid && err != nil {
				t.Fatalf("valid fault config rejected: %v", err)
			}
			if !tc.valid && err == nil {
				t.Fatal("invalid fault config accepted")
			}
		})
	}
}
