// Package config centralizes the paper's Table 1 machine configuration and
// the per-run experiment parameters shared by the simulator, the benchmark
// harness, and the CLI tools.
package config

import (
	"errors"
	"fmt"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/fault"
)

// Machine describes the simulated processor and memory hierarchy.
type Machine struct {
	CPU cpu.Config

	// Instruction L1: 16KB, direct-mapped, 32-byte blocks, 1 cycle.
	IL1Size, IL1Assoc, IL1Block int
	IL1Latency                  uint64

	// Data L1: 16KB, 4-way, 64-byte blocks, 1 cycle.
	DL1Size, DL1Assoc, DL1Block int
	DL1Latency                  uint64

	// L2: 256KB unified, 4-way, 64-byte blocks, 6 cycles.
	L2Size, L2Assoc, L2Block int
	L2Latency                uint64

	// Memory: 100 cycles.
	MemLatency uint64
}

// Default returns the paper's Table 1 configuration.
func Default() Machine {
	return Machine{
		CPU:     cpu.DefaultConfig(),
		IL1Size: 16 << 10, IL1Assoc: 1, IL1Block: 32, IL1Latency: 1,
		DL1Size: 16 << 10, DL1Assoc: 4, DL1Block: 64, DL1Latency: 1,
		L2Size: 256 << 10, L2Assoc: 4, L2Block: 64, L2Latency: 6,
		MemLatency: 100,
	}
}

// Validate reports obviously broken machine parameters, and a core the
// timing model cannot run (cpu.Config.Validate).
func (m *Machine) Validate() error {
	if err := m.CPU.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if m.DL1Size <= 0 || m.DL1Assoc <= 0 || m.DL1Block <= 0 {
		return fmt.Errorf("config: bad dL1 geometry")
	}
	if m.L2Size <= 0 || m.IL1Size <= 0 {
		return fmt.Errorf("config: bad cache sizes")
	}
	return nil
}

// DL1Sets returns the number of data-L1 sets.
func (m *Machine) DL1Sets() int { return m.DL1Size / (m.DL1Assoc * m.DL1Block) }

// FaultConfig enables transient-error injection for a run.
type FaultConfig struct {
	Model fault.Model `spec:"fault"`
	// Prob is the per-cycle injection probability (0 disables).
	Prob float64 `spec:"prob"`
	Seed int64   `spec:"faultseed"`
}

// Validate reports a fault configuration the injector cannot run: a
// probability outside [0, 1], or injection enabled (Prob > 0) without a
// known Model. A zero Model is not defaulted here: only TwoTier
// normalizes its fault model, and the run-level Model is part of the
// run's cache key as given.
func (f FaultConfig) Validate() error {
	if f.Prob == 0 {
		return nil
	}
	if !(f.Prob > 0 && f.Prob <= 1) {
		return fmt.Errorf("config: fault probability %v outside [0, 1]", f.Prob)
	}
	if _, err := fault.ParseModel(f.Model.String()); err != nil {
		return fmt.Errorf("config: fault injection at probability %v needs a model (direct, adjacent, column, random), got %s", f.Prob, f.Model)
	}
	return nil
}

// Run describes one simulation: a benchmark under a scheme with replication
// parameters, an instruction budget, and optional fault injection.
type Run struct {
	Benchmark string
	Scheme    core.Scheme
	Repl      core.ReplConfig

	// Instructions is the commit budget (the paper runs 500M; the
	// default harness uses a smaller budget that reaches steady state).
	Instructions uint64
	Seed         int64

	// WriteThrough switches the dL1 to write-through with an 8-entry
	// coalescing write buffer (the §5.8 comparison).
	WriteThrough bool

	Fault  FaultConfig
	Energy energy.Params

	// Hints directs replication per address range (core.Config.Hints; the
	// paper's §6 future work). Nil replicates every block.
	Hints []core.AddrRange

	// DupCacheKB, when > 0, attaches a separate Kim & Somani-style
	// duplication cache of this many KB to the dL1 (the baseline the
	// paper positions ICR against; internal/rcache).
	DupCacheKB int

	// ScrubInterval, when > 0, runs a background scrubber that verifies
	// 4 dL1 lines every ScrubInterval cycles (Saleh-style scrubbing; the
	// paper's reference [21]).
	ScrubInterval uint64

	// Prefetch enables next-block prefetching into dead lines (the
	// competing use of dead real estate from the prefetching literature
	// the paper builds on).
	Prefetch bool

	// Sample, when enabled (Period > 0), switches the run to SMARTS-style
	// sampled simulation: detailed cycle-accurate windows alternate with
	// functional warming, and timing is extrapolated with confidence
	// intervals (metrics.SamplingStats). Zero value = exact simulation.
	Sample SampleConfig

	// Adapt, when enabled (a predictor is selected), attaches the
	// ICR-ADAPT runtime controller: replication knobs are retuned online
	// from epoch observations (internal/adapt) and the run reports under
	// the ICR-ADAPT-* scheme family with an metrics.AdaptiveStats block.
	// Zero value = static run.
	Adapt adapt.Config

	// TwoTier, when enabled (a tier protection is selected), protects the
	// second tier of the hierarchy — the unified L2, or a remote tier
	// when ExtraLatency is set — with its own parity/ECC, decay-based
	// in-tier replication, fault injection, and optional cross-tier
	// replica placement against the L1. Zero value = plain timing L2,
	// byte-identical to the single-tier simulator.
	TwoTier TwoTier
}

// SampleConfig parameterizes SMARTS-style sampled simulation. The run is
// tiled into units of Period instructions; each unit is functional warming
// (Period - Warmup - Detail instructions, updating caches, replication
// state, decay counters, and branch predictors but skipping out-of-order
// timing) followed by a detailed warm-up window of Warmup instructions
// (simulated cycle-accurately but discarded from timing estimates) and a
// measured detailed window of Detail instructions.
type SampleConfig struct {
	// Period is the sampling-unit length in instructions. 0 disables
	// sampling (exact simulation).
	Period uint64 `spec:"period"`
	// Detail is the measured detailed-window length per unit
	// (0 = DefaultSampleDetail).
	Detail uint64 `spec:"detail"`
	// Warmup is the detailed warm-up run before each measured window,
	// excluded from timing estimates (0 = DefaultSampleWarmup).
	Warmup uint64 `spec:"warmup"`
	// Confidence is the percent confidence level of the reported
	// intervals: 90, 95, or 99 (0 = 95).
	Confidence int `spec:"conf"`
}

// Default sampling-window geometry: a 50K-instruction unit with a
// 1K-instruction measured window behind a 400-instruction detailed
// warm-up keeps the detailed fraction at 2.8% — small enough that
// throughput is dominated by the warming rate — while taking twice the
// windows of a 100K unit at the same cost, which is what bounds the
// sampling error against the workloads' phase structure (the validation
// table in EXPERIMENTS.md: worst-case IPC error 0.9% over an 8M-instruction
// budget, versus 2.3% for a 100K/2K/500 unit).
const (
	DefaultSamplePeriod = 50_000
	DefaultSampleDetail = 1_000
	DefaultSampleWarmup = 400
	DefaultSampleConf   = 95
)

// Enabled reports whether sampling is requested at all.
func (s SampleConfig) Enabled() bool { return s.Period > 0 }

// Normalized fills defaulted fields. It does not validate geometry; a
// period too short for its windows degrades to exact simulation (see
// sim.PlanWindows).
func (s SampleConfig) Normalized() SampleConfig {
	if !s.Enabled() {
		return SampleConfig{}
	}
	if s.Detail == 0 {
		s.Detail = DefaultSampleDetail
	}
	if s.Warmup == 0 {
		s.Warmup = DefaultSampleWarmup
	}
	if s.Confidence == 0 {
		s.Confidence = DefaultSampleConf
	}
	return s
}

// DefaultInstructions is the default per-run commit budget used by the
// harness: large enough for every benchmark's steady-state cache and
// predictor behaviour at a laptop-scale runtime. (The paper runs 500M
// instructions per configuration on SimpleScalar; pass a larger budget to
// reproduce that scale.)
const DefaultInstructions = 1_000_000

// NewRun returns a Run for the benchmark × scheme with harness defaults:
// the default instruction budget, seed 1, a single vertical replica with a
// dead-only victim policy and the aggressive (window 0) decay the paper
// uses for §5.1-5.2, and CACTI-class energy parameters.
func NewRun(benchmark string, scheme core.Scheme) Run {
	return Run{
		Benchmark:    benchmark,
		Scheme:       scheme,
		Instructions: DefaultInstructions,
		Seed:         1,
		Energy:       energy.DefaultParams(),
	}
}

// Validate reports a run the simulator cannot run as given: the adaptive
// controller on a scheme that does not replicate, or a two-tier or fault
// configuration its Validate rejects.
func (r *Run) Validate() error {
	if r.Adapt.Enabled() && !r.Scheme.HasReplication() {
		return fmt.Errorf("config: adaptive controller requires a replicating scheme, got %s", r.Scheme.Name())
	}
	return errors.Join(r.TwoTier.Validate(), r.Fault.Validate())
}

// Name returns a stable label for the run ("benchmark/scheme").
func (r *Run) Name() string { return r.Benchmark + "/" + r.Scheme.Name() }

// ValidateSeeds checks a list of seeds to average over. A seed of 0 means
// "unset" to a run, which falls back to seed 1, and a repeated seed
// weighs one realization twice; either would mislabel the mean.
func ValidateSeeds(seeds []int64) error {
	seen := make(map[int64]bool, len(seeds))
	for _, s := range seeds {
		switch {
		case s == 0:
			return fmt.Errorf("seed 0 in a seed list: seeds must be nonzero (0 means unset)")
		case seen[s]:
			return fmt.Errorf("seed %d repeated in a seed list", s)
		}
		seen[s] = true
	}
	return nil
}
