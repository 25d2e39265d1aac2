package sim

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
)

const testInstrs = 150_000

func TestSimulateBasicSanity(t *testing.T) {
	r := config.NewRun("gzip", core.BaseP())
	r.Instructions = testInstrs
	rep, err := Simulate(config.Default(), r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instructions != testInstrs {
		t.Errorf("instructions = %d, want %d", rep.Instructions, testInstrs)
	}
	if rep.Cycles == 0 || rep.IPC() <= 0 || rep.IPC() > 4 {
		t.Errorf("cycles/IPC implausible: %d / %.3f", rep.Cycles, rep.IPC())
	}
	if rep.DL1Reads == 0 || rep.DL1Writes == 0 {
		t.Error("no data-cache traffic")
	}
	if rep.DL1MissRate() <= 0 || rep.DL1MissRate() > 0.5 {
		t.Errorf("miss rate %.4f implausible", rep.DL1MissRate())
	}
	if rep.L2Accesses == 0 || rep.MemAccesses == 0 {
		t.Error("no lower-hierarchy traffic")
	}
	if rep.TotalEnergy() <= 0 {
		t.Error("no energy accounted")
	}
	if rep.Branches == 0 || rep.MispredictRate() <= 0 || rep.MispredictRate() > 0.4 {
		t.Errorf("branch behaviour implausible: %d branches, rate %.3f", rep.Branches, rep.MispredictRate())
	}
}

func TestDeterminism(t *testing.T) {
	r := config.NewRun("vpr", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Instructions = testInstrs
	a, err := Simulate(config.Default(), r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(config.Default(), r)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("identical runs diverged:\n%v\n%v", a, b)
	}
}

func TestBaseECCSlowerThanBaseP(t *testing.T) {
	for _, bench := range []string{"gzip", "mesa"} {
		rp := config.NewRun(bench, core.BaseP())
		rp.Instructions = testInstrs
		p, err := Simulate(config.Default(), rp)
		if err != nil {
			t.Fatal(err)
		}
		re := config.NewRun(bench, core.BaseECC(false))
		re.Instructions = testInstrs
		e, err := Simulate(config.Default(), re)
		if err != nil {
			t.Fatal(err)
		}
		if e.Cycles <= p.Cycles {
			t.Errorf("%s: BaseECC (%d) must be slower than BaseP (%d)", bench, e.Cycles, p.Cycles)
		}
		// Speculative ECC closes most of the gap.
		rs := config.NewRun(bench, core.BaseECC(true))
		rs.Instructions = testInstrs
		s, err := Simulate(config.Default(), rs)
		if err != nil {
			t.Fatal(err)
		}
		if s.Cycles >= e.Cycles {
			t.Errorf("%s: speculative BaseECC (%d) should beat plain BaseECC (%d)", bench, s.Cycles, e.Cycles)
		}
	}
}

func TestICROrderingMatchesPaper(t *testing.T) {
	// The §5.2 ordering: BaseP <= ICR-P-PS(S) < ICR-*-PP ~ BaseECC.
	bench := "gzip"
	cycles := map[string]uint64{}
	for _, s := range []core.Scheme{
		core.BaseP(),
		core.BaseECC(false),
		core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores),
		core.ICR(core.ParityProt, core.LookupParallel, core.ReplStores),
	} {
		r := config.NewRun(bench, s)
		r.Instructions = testInstrs
		rep, err := Simulate(config.Default(), r)
		if err != nil {
			t.Fatal(err)
		}
		cycles[s.Name()] = rep.Cycles
	}
	if cycles["ICR-P-PS(S)"] < cycles["BaseP"] {
		t.Errorf("ICR-P-PS(S) cannot beat BaseP without leave-replicas: %v", cycles)
	}
	if float64(cycles["ICR-P-PS(S)"]) > float64(cycles["BaseP"])*1.08 {
		t.Errorf("ICR-P-PS(S) should be within a few %% of BaseP: %v", cycles)
	}
	if float64(cycles["ICR-P-PP(S)"]) < float64(cycles["BaseECC"])*0.9 {
		t.Errorf("ICR-P-PP should be comparable to BaseECC: %v", cycles)
	}
}

func TestLSReplicatesMoreThanS(t *testing.T) {
	mk := func(trigger core.ReplTrigger) (ability, lwr float64, miss float64) {
		r := config.NewRun("vortex", core.ICR(core.ParityProt, core.LookupSerial, trigger))
		r.Instructions = testInstrs
		rep, err := Simulate(config.Default(), r)
		if err != nil {
			t.Fatal(err)
		}
		return rep.ReplAbility(), rep.LoadsWithReplica(), rep.DL1MissRate()
	}
	sAb, sLWR, sMiss := mk(core.ReplStores)
	lsAb, lsLWR, lsMiss := mk(core.ReplLoadsStores)
	if lsAb <= sAb {
		t.Errorf("LS ability (%.3f) should exceed S (%.3f) — Fig 6", lsAb, sAb)
	}
	if lsLWR <= sLWR {
		t.Errorf("LS loads-with-replica (%.3f) should exceed S (%.3f) — Fig 7", lsLWR, sLWR)
	}
	if sLWR < 0.5 {
		t.Errorf("S loads-with-replica %.3f too low (paper: >65%%)", sLWR)
	}
	if lsLWR < 0.85 {
		t.Errorf("LS loads-with-replica %.3f too low (paper: >90%%)", lsLWR)
	}
	if lsMiss <= sMiss {
		t.Errorf("LS misses (%.4f) should exceed S (%.4f) — Fig 8", lsMiss, sMiss)
	}
}

func TestFaultInjectionOutcomes(t *testing.T) {
	mk := func(s core.Scheme) *reportOut {
		r := config.NewRun("vortex", s)
		r.Instructions = testInstrs
		r.Fault = config.FaultConfig{Model: fault.Random, Prob: 0.01, Seed: 7}
		rep, err := Simulate(config.Default(), r)
		if err != nil {
			t.Fatal(err)
		}
		return &reportOut{rep.ErrorsInjected, rep.UnrecoverableLoads, rep.RecoveredByECC, rep.RecoveredByReplica, rep.RecoveredByL2}
	}
	basep := mk(core.BaseP())
	baseecc := mk(core.BaseECC(false))
	icr := mk(core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))

	if basep.injected == 0 {
		t.Fatal("no errors injected")
	}
	// BaseECC corrects every single-bit error; at this (deliberately
	// extreme) rate some words accumulate two flips between accesses,
	// which SEC-DED can only detect — so a small residue is physical.
	if baseecc.unrecoverable*10 > basep.unrecoverable {
		t.Errorf("BaseECC unrecoverable (%d) should be far below BaseP (%d)",
			baseecc.unrecoverable, basep.unrecoverable)
	}
	if baseecc.ecc == 0 {
		t.Error("BaseECC should have corrected some errors")
	}
	if basep.unrecoverable == 0 {
		t.Error("BaseP at this error rate should lose some dirty data (Fig 14)")
	}
	if icr.unrecoverable >= basep.unrecoverable {
		t.Errorf("ICR (%d unrecoverable) must beat BaseP (%d) — Fig 14",
			icr.unrecoverable, basep.unrecoverable)
	}
	if icr.replica == 0 {
		t.Error("ICR should have recovered some loads from replicas")
	}
}

type reportOut struct {
	injected, unrecoverable, ecc, replica, l2 uint64
}

func TestWriteThroughComparison(t *testing.T) {
	// §5.8: write-through BaseP vs write-back ICR-P-PS(S).
	wt := config.NewRun("vortex", core.BaseP())
	wt.Instructions = testInstrs
	wt.WriteThrough = true
	wtRep, err := Simulate(config.Default(), wt)
	if err != nil {
		t.Fatal(err)
	}
	wb := config.NewRun("vortex", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	wb.Instructions = testInstrs
	wbRep, err := Simulate(config.Default(), wb)
	if err != nil {
		t.Fatal(err)
	}
	if wtRep.L2Accesses <= wbRep.L2Accesses {
		t.Errorf("write-through L2 traffic (%d) should exceed write-back (%d)",
			wtRep.L2Accesses, wbRep.L2Accesses)
	}
	if wtRep.EnergyL2 <= wbRep.EnergyL2 {
		t.Errorf("write-through L2 energy (%.0f) should exceed write-back (%.0f)",
			wtRep.EnergyL2, wbRep.EnergyL2)
	}
	if wtRep.Cycles <= wbRep.Cycles {
		t.Errorf("write-through (%d cycles) should be slower than ICR write-back (%d) — Fig 16a",
			wtRep.Cycles, wbRep.Cycles)
	}
}

func TestLeaveReplicasImprovesOnDrop(t *testing.T) {
	mk := func(leave bool) (uint64, uint64) {
		r := config.NewRun("vpr", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
		r.Instructions = testInstrs
		r.Repl.LeaveReplicas = leave
		rep, err := Simulate(config.Default(), r)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles, rep.ReplicaServedMisses
	}
	dropCycles, dropServed := mk(false)
	leaveCycles, leaveServed := mk(true)
	if dropServed != 0 {
		t.Errorf("drop mode must not serve misses from replicas, got %d", dropServed)
	}
	if leaveServed == 0 {
		t.Error("leave mode should serve some misses from replicas (§5.6)")
	}
	if leaveCycles > dropCycles {
		t.Errorf("leave-replicas (%d cycles) should not be slower than drop (%d)", leaveCycles, dropCycles)
	}
}

func TestScrubberIntegration(t *testing.T) {
	r := config.NewRun("vortex", core.BaseP())
	r.Instructions = testInstrs
	r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
	r.ScrubInterval = 500
	rep, err := Simulate(config.Default(), r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScrubChecks == 0 {
		t.Fatal("scrubber never ran")
	}
	if rep.ScrubErrors == 0 {
		t.Error("scrubber found no errors at this injection rate")
	}
	if rep.ScrubRepaired+rep.ScrubLost != rep.ScrubErrors {
		t.Errorf("scrub accounting: %d repaired + %d lost != %d errors",
			rep.ScrubRepaired, rep.ScrubLost, rep.ScrubErrors)
	}
	// Scrubbing should not increase demand-load loss.
	r2 := r
	r2.ScrubInterval = 0
	rep2, err := Simulate(config.Default(), r2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnrecoverableLoads > rep2.UnrecoverableLoads {
		t.Errorf("scrubbing increased demand loss: %d vs %d",
			rep.UnrecoverableLoads, rep2.UnrecoverableLoads)
	}
}

func TestDupCacheIntegration(t *testing.T) {
	r := config.NewRun("vortex", core.BaseP())
	r.Instructions = testInstrs
	r.DupCacheKB = 2
	r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
	rep, err := Simulate(config.Default(), r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReadHitsWithDuplicate == 0 {
		t.Error("duplication cache covered no loads")
	}
	if rep.EnergyRCache == 0 {
		t.Error("duplication-cache energy not priced")
	}
	// It must reduce loss vs bare BaseP.
	r2 := r
	r2.DupCacheKB = 0
	rep2, err := Simulate(config.Default(), r2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnrecoverableLoads >= rep2.UnrecoverableLoads {
		t.Errorf("r-cache should cut loss: %d vs %d",
			rep.UnrecoverableLoads, rep2.UnrecoverableLoads)
	}
	if rep.RecoveredByDuplicate == 0 {
		t.Error("no duplicate recoveries recorded")
	}
}

func TestVulnerabilityIntegration(t *testing.T) {
	m := config.Default()
	lines := m.DL1Sets() * m.DL1Assoc
	mk := func(s core.Scheme) float64 {
		r := config.NewRun("vortex", s)
		r.Instructions = testInstrs
		if s.HasReplication() {
			r.Repl.DecayWindow = 1000
			r.Repl.Victim = core.DeadFirst
		}
		rep, err := Simulate(config.Default(), r)
		if err != nil {
			t.Fatal(err)
		}
		return rep.VulnerabilityPerLine(lines)
	}
	basep := mk(core.BaseP())
	icr := mk(core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	baseecc := mk(core.BaseECC(false))
	if baseecc != 0 {
		t.Errorf("BaseECC vulnerability = %g, want 0", baseecc)
	}
	if basep <= 0 || basep > 1 {
		t.Errorf("BaseP vulnerability %g out of range", basep)
	}
	if icr >= basep/2 {
		t.Errorf("ICR vulnerability (%g) should be far below BaseP (%g)", icr, basep)
	}
}

func TestSimulateRejectsUnknownBenchmark(t *testing.T) {
	r := config.NewRun("swim", core.BaseP())
	if _, err := Simulate(config.Default(), r); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %g, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %g, want 0", g)
	}
	if g := GeoMean([]float64{1, 0}); g != 0 {
		t.Errorf("GeoMean with nonpositive = %g, want 0", g)
	}
}
