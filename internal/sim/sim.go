// Package sim assembles a complete simulated machine — workload generator,
// out-of-order core, branch predictors, instruction L1, ICR data L1,
// unified L2, memory, and fault injector — runs it, and
// produces a metrics.Report. This is the programmatic entry point every
// experiment, example, and CLI tool uses.
package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Simulate runs one benchmark × scheme configuration on the given machine
// and returns the full report.
func Simulate(m config.Machine, r config.Run) (*metrics.Report, error) {
	//icrvet:ignore ctxflow Simulate is the documented non-cancellable entry point; it roots its own context by design
	return SimulateContext(context.Background(), m, r)
}

// SimulateContext is Simulate with cooperative cancellation: when ctx is
// cancellable (ctx.Done() != nil), the core polls an atomic stop flag once
// per simulated cycle and the run aborts promptly with ctx's error. A
// non-cancellable context (context.Background) adds no per-cycle overhead,
// so the serial path is unchanged.
//
// The assembled machine (cache arenas, RUU, predictor tables) is drawn
// from a process-wide pool keyed by the run's shape (see shapeOf) and
// fully reset between runs, so steady-state batch submissions allocate
// only per-run state (the workload generator and fault injector). Results
// are byte-identical to a freshly built machine — the reset path is pinned
// to the equivalence goldens by TestPooledInstanceByteIdentical.
func SimulateContext(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	profile, err := workload.ByName(r.Benchmark)
	if err != nil {
		return nil, err
	}
	gen, err := workload.New(profile, r.Seed)
	if err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// Canonicalize before shapeOf so equal-after-defaulting configs share
	// a pool shape.
	r.Adapt = r.Adapt.Normalized()
	r.TwoTier = r.TwoTier.Normalized()
	if r.Instructions == 0 {
		r.Instructions = config.DefaultInstructions
	}
	if r.Energy == (energy.Params{}) {
		r.Energy = energy.DefaultParams()
	}

	inst := defaultPool.get(shapeOf(m, r))
	if inst == nil {
		inst = newInstance(m, r)
	}
	rep, err := inst.simulate(ctx, m, r, gen)
	defaultPool.put(inst)
	return rep, err
}

// assemble folds every component's counters into one report.
func assemble(
	r config.Run,
	cs cpu.Stats,
	ds core.Stats,
	is cache.Stats,
	ls cache.Stats,
	mem *cache.Memory,
	counts energy.Counts,
	injector *fault.Injector,
) *metrics.Report {
	rep := &metrics.Report{
		Benchmark:    r.Benchmark,
		Scheme:       r.Scheme.Name(),
		Instructions: cs.Instructions,
		Cycles:       cs.Cycles,

		DL1Reads: ds.Reads, DL1ReadHits: ds.ReadHits, DL1ReadMisses: ds.ReadMisses,
		DL1Writes: ds.Writes, DL1WriteHits: ds.WriteHits, DL1WriteMisses: ds.WriteMisses,
		DL1Writebacks: ds.Writebacks,

		L2Accesses:  ls.Accesses(),
		L2Misses:    ls.Misses(),
		MemAccesses: mem.Accesses(),

		IL1Fetches: is.Fetches,
		IL1Misses:  is.FetchMisses,

		Branches:    cs.Branches,
		Mispredicts: cs.Mispredicts,

		ReplAttempts:        ds.ReplAttempts,
		ReplSuccesses:       ds.ReplSuccesses,
		ReplDoubles:         ds.ReplDoubles,
		ReadHitsWithReplica: ds.ReadHitsWithReplica,
		ReplicaServedMisses: ds.ReplicaServedMisses,
		ReplicaEvictions:    ds.ReplicaEvictions,
		DeadEvictions:       ds.DeadEvictions,

		ErrorsDetected:        ds.ErrorsDetected,
		RecoveredByECC:        ds.RecoveredByECC,
		RecoveredByReplica:    ds.RecoveredByReplica,
		RecoveredByDuplicate:  ds.RecoveredByDuplicate,
		RecoveredByL2:         ds.RecoveredByL2,
		ReadHitsWithDuplicate: ds.ReadHitsWithDuplicate,
		UnrecoverableLoads:    ds.UnrecoverableLoads,
		SilentWritebacks:      ds.SilentWritebacks,
		VulnerableLineCycles:  ds.VulnerableLineCycles,

		EnergyL1:     r.Energy.L1Energy(counts),
		EnergyL2:     r.Energy.L2Energy(counts),
		EnergyChecks: r.Energy.CheckEnergy(counts),
		EnergyRCache: r.Energy.RCacheEnergy(counts),
	}
	if injector != nil {
		rep.ErrorsInjected = injector.Injected()
	}
	return rep
}

// GeoMean returns the geometric mean of a slice of positive ratios — the
// aggregation the paper uses for "average across applications".
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
