package workload

import "fmt"

// KB is one kilobyte; MB one megabyte.
const (
	KB uint64 = 1 << 10
	MB uint64 = 1 << 20
)

// The region weights below are calibrated against the locality classes of
// the Spec2000 applications on the paper's 16KB 4-way dL1. Rules of thumb
// per access: a Chase region far larger than the cache misses ~90-95%; a
// Stream region misses ~1/8 (one block fill per eight 8-byte steps); a Hot
// region that fits in the cache misses ~1-2%; Stack misses ~0%.

// Gzip models the compression phases of 164.gzip: streaming I/O buffers,
// a hot set of frequency tables, tight loops, very predictable branches.
func Gzip() Profile {
	return Profile{
		Name:     "gzip",
		LoadFrac: 0.24, StoreFrac: 0.11,
		FPFrac: 0.0, MulFrac: 0.04, DivFrac: 0.005,
		CodeBlocks: 96, MeanBlockLen: 7, Funcs: 4,
		LoopFrac: 0.30, LoopMean: 12,
		CondBias: []float64{0.96, 0.04, 0.9, 0.98},
		Regions: []RegionSpec{
			{Kind: Stream, Weight: 0.16, Size: 128 * KB},
			{Kind: Hot, Weight: 0.58, Size: 6 * KB, ZipfS: 1.6, SetSpread: 28},
			{Kind: Stack, Weight: 0.24, Size: 2 * KB},
			{Kind: Spill, Weight: 0.02, Size: 32 * KB},
		},
		DepGeomP: 0.45, LoadUseProb: 0.90,
	}
}

// Vpr models 175.vpr (FPGA place & route): pointer work over the routing
// graph, a hot placement core, an occasional channel sweep.
func Vpr() Profile {
	return Profile{
		Name:     "vpr",
		LoadFrac: 0.27, StoreFrac: 0.10,
		FPFrac: 0.15, MulFrac: 0.05, DivFrac: 0.01,
		CodeBlocks: 160, MeanBlockLen: 6, Funcs: 6,
		LoopFrac: 0.24, LoopMean: 7,
		CondBias: []float64{0.94, 0.06, 0.97, 0.8},
		Regions: []RegionSpec{
			{Kind: Chase, Weight: 0.020, Size: 256 * KB},
			{Kind: Stream, Weight: 0.06, Size: 64 * KB},
			{Kind: Hot, Weight: 0.62, Size: 7 * KB, ZipfS: 1.5, SetSpread: 16},
			{Kind: Stack, Weight: 0.265, Size: 2 * KB},
			{Kind: Spill, Weight: 0.035, Size: 24 * KB},
		},
		DepGeomP: 0.45, LoadUseProb: 0.90,
	}
}

// Gcc models 176.gcc: a large code footprint (instruction-cache pressure),
// branchy control, mixed data locality over IR structures.
func Gcc() Profile {
	return Profile{
		Name:     "gcc",
		LoadFrac: 0.26, StoreFrac: 0.13,
		FPFrac: 0.0, MulFrac: 0.03, DivFrac: 0.004,
		CodeBlocks: 600, MeanBlockLen: 6, Funcs: 24,
		LoopFrac: 0.18, LoopMean: 5,
		CondBias: []float64{0.93, 0.07, 0.8, 0.2, 0.97},
		Regions: []RegionSpec{
			{Kind: Chase, Weight: 0.020, Size: 512 * KB},
			{Kind: Stream, Weight: 0.06, Size: 64 * KB},
			{Kind: Hot, Weight: 0.58, Size: 8 * KB, ZipfS: 1.45, SetSpread: 32},
			{Kind: Stack, Weight: 0.315, Size: 3 * KB},
			{Kind: Spill, Weight: 0.025, Size: 24 * KB},
		},
		DepGeomP: 0.48, LoadUseProb: 0.88,
	}
}

// Mcf models 181.mcf (network simplex): pointer chasing across a
// multi-megabyte arc/node graph with pathological locality; the paper
// notes its dL1 behaves so poorly that replication costs it nothing.
func Mcf() Profile {
	return Profile{
		Name:     "mcf",
		LoadFrac: 0.33, StoreFrac: 0.08,
		FPFrac: 0.0, MulFrac: 0.03, DivFrac: 0.002,
		CodeBlocks: 72, MeanBlockLen: 5, Funcs: 4,
		LoopFrac: 0.30, LoopMean: 18,
		CondBias: []float64{0.93, 0.1, 0.8},
		Regions: []RegionSpec{
			{Kind: Chase, Weight: 0.22, Size: 4 * MB},
			{Kind: Hot, Weight: 0.42, Size: 4 * KB, ZipfS: 1.6, SetSpread: 8},
			{Kind: Stack, Weight: 0.33, Size: 2 * KB},
			{Kind: Spill, Weight: 0.03, Size: 16 * KB},
		},
		DepGeomP: 0.55, LoadUseProb: 0.92,
	}
}

// Parser models 197.parser: dictionary lookups (pointer-ish) against a hot
// working set of grammar structures.
func Parser() Profile {
	return Profile{
		Name:     "parser",
		LoadFrac: 0.26, StoreFrac: 0.11,
		FPFrac: 0.0, MulFrac: 0.03, DivFrac: 0.003,
		CodeBlocks: 320, MeanBlockLen: 6, Funcs: 12,
		LoopFrac: 0.20, LoopMean: 6,
		CondBias: []float64{0.94, 0.06, 0.8, 0.97},
		Regions: []RegionSpec{
			{Kind: Chase, Weight: 0.025, Size: 512 * KB},
			{Kind: Stream, Weight: 0.07, Size: 32 * KB},
			{Kind: Hot, Weight: 0.56, Size: 7 * KB, ZipfS: 1.5, SetSpread: 28},
			{Kind: Stack, Weight: 0.32, Size: 2 * KB},
			{Kind: Spill, Weight: 0.025, Size: 24 * KB},
		},
		DepGeomP: 0.47, LoadUseProb: 0.88,
	}
}

// Mesa models 177.mesa (software OpenGL): floating-point heavy, streaming
// vertex data, extremely regular control — the most cache-friendly of the
// set.
func Mesa() Profile {
	return Profile{
		Name:     "mesa",
		LoadFrac: 0.25, StoreFrac: 0.13,
		FPFrac: 0.45, MulFrac: 0.14, DivFrac: 0.015,
		CodeBlocks: 200, MeanBlockLen: 8, Funcs: 8,
		LoopFrac: 0.30, LoopMean: 16,
		CondBias: []float64{0.96, 0.04, 0.9},
		Regions: []RegionSpec{
			{Kind: Stream, Weight: 0.10, Size: 32 * KB},
			{Kind: Hot, Weight: 0.60, Size: 7 * KB, ZipfS: 1.6},
			{Kind: Stack, Weight: 0.285, Size: 2 * KB},
			{Kind: Spill, Weight: 0.015, Size: 24 * KB},
		},
		DepGeomP: 0.40, LoadUseProb: 0.88,
	}
}

// Vortex models 255.vortex (OO database): store-heavy transactions over
// hot object sets with occasional cold traversals.
func Vortex() Profile {
	return Profile{
		Name:     "vortex",
		LoadFrac: 0.25, StoreFrac: 0.17,
		FPFrac: 0.0, MulFrac: 0.03, DivFrac: 0.003,
		CodeBlocks: 440, MeanBlockLen: 6, Funcs: 20,
		LoopFrac: 0.18, LoopMean: 5,
		CondBias: []float64{0.95, 0.05, 0.9, 0.8},
		Regions: []RegionSpec{
			{Kind: Chase, Weight: 0.015, Size: 256 * KB},
			{Kind: Stream, Weight: 0.05, Size: 64 * KB},
			{Kind: Hot, Weight: 0.535, Size: 8 * KB, ZipfS: 1.5, SetSpread: 24},
			{Kind: Stack, Weight: 0.36, Size: 3 * KB},
			{Kind: Spill, Weight: 0.04, Size: 32 * KB},
		},
		DepGeomP: 0.46, LoadUseProb: 0.88,
	}
}

// Bzip2 models 256.bzip2: block-sorting compression with large streaming
// buffers and strided suffix-array style sweeps.
func Bzip2() Profile {
	return Profile{
		Name:     "bzip2",
		LoadFrac: 0.26, StoreFrac: 0.12,
		FPFrac: 0.0, MulFrac: 0.04, DivFrac: 0.004,
		CodeBlocks: 112, MeanBlockLen: 7, Funcs: 4,
		LoopFrac: 0.32, LoopMean: 14,
		CondBias: []float64{0.94, 0.06, 0.85},
		Regions: []RegionSpec{
			{Kind: Stream, Weight: 0.25, Size: 256 * KB},
			{Kind: Strided, Weight: 0.012, Size: 128 * KB, Stride: 520},
			{Kind: Hot, Weight: 0.42, Size: 7 * KB, ZipfS: 1.5},
			{Kind: Stack, Weight: 0.298, Size: 2 * KB},
			{Kind: Spill, Weight: 0.02, Size: 32 * KB},
		},
		DepGeomP: 0.47, LoadUseProb: 0.88,
	}
}

// Flux is a phase-shifting workload: each ~240K-instruction period spends
// its first two thirds in a cache-resident hot regime (60% of memory work
// in a hot 6KB Zipf set — dead lines abound, replication is nearly free
// and the store-heavy hot set needs it) and its last third in a mixed
// adverse regime: the hot slots stream through a 192KB buffer while the
// warm slots sweep a 10KB array line by line. The warm sweep is the trap
// for any fixed decay window: its lines are re-touched every ~2-3K cycles,
// so a relaxed (~1000-cycle) window keeps declaring them dead between
// touches and a dead-first replicator keeps displacing them — every
// displacement buys a writeback, a refetch, and a miss — while a
// conservative (~4000-cycle) window never does. The hot regime pulls the
// other way: a conservative dead-only policy finds too little dead space
// to protect the store-heavy hot set. The boundary is jittered so phase
// flips never align with observation epochs or sampling windows. No single
// static ICR configuration suits both regimes, which is what the
// ICR-ADAPT controller exploits.
func Flux() Profile {
	return Profile{
		Name:     "flux",
		LoadFrac: 0.27, StoreFrac: 0.12,
		FPFrac: 0.05, MulFrac: 0.04, DivFrac: 0.005,
		CodeBlocks: 128, MeanBlockLen: 6, Funcs: 5,
		LoopFrac: 0.26, LoopMean: 9,
		CondBias: []float64{0.95, 0.05, 0.9},
		Regions: []RegionSpec{
			{Kind: Hot, Weight: 0.43, Size: 6 * KB, ZipfS: 1.6},
			{Kind: Strided, Weight: 0.18, Size: 6 * KB, Stride: 64},
			{Kind: Stream, Weight: 0.03, Size: 192 * KB},
			{Kind: Stack, Weight: 0.34, Size: 2 * KB},
			{Kind: Spill, Weight: 0.01, Size: 16 * KB},
		},
		DepGeomP: 0.46, LoadUseProb: 0.90,
		Phases: []PhaseSpec{
			{Start: 0, Map: []int{0, 0, 2, 3, 4}},
			{Start: 160_000, Jitter: 8_000, Map: []int{2, 1, 2, 3, 4}},
		},
		PhasePeriod: 240_000,
	}
}

// Drift is a one-shot phase shift: a hot-set regime for the first ~400K
// instructions, after which the hot-bound slots permanently stream over a
// 256KB buffer (a program moving from a compute phase into an output
// phase). Unlike Flux there is no recovery: a controller that ramped up
// must detect the regime change and back off once.
func Drift() Profile {
	return Profile{
		Name:     "drift",
		LoadFrac: 0.25, StoreFrac: 0.13,
		FPFrac: 0.0, MulFrac: 0.04, DivFrac: 0.004,
		CodeBlocks: 112, MeanBlockLen: 7, Funcs: 4,
		LoopFrac: 0.30, LoopMean: 12,
		CondBias: []float64{0.96, 0.04, 0.9},
		Regions: []RegionSpec{
			{Kind: Hot, Weight: 0.55, Size: 7 * KB, ZipfS: 1.6, SetSpread: 28},
			{Kind: Stream, Weight: 0.07, Size: 256 * KB},
			{Kind: Stack, Weight: 0.33, Size: 2 * KB},
			{Kind: Spill, Weight: 0.05, Size: 24 * KB},
		},
		DepGeomP: 0.46, LoadUseProb: 0.90,
		Phases: []PhaseSpec{
			{Start: 0, Map: []int{0, 1, 2, 3}},
			{Start: 400_000, Jitter: 20_000, Map: []int{1, 0, 2, 3}},
		},
	}
}

// paperProfiles and phaseProfiles are the profile constructors in their
// stable orders: the eight paper benchmarks, and the phase-shifting
// workloads.
var (
	paperProfiles = []func() Profile{Gzip, Vpr, Gcc, Mcf, Parser, Mesa, Vortex, Bzip2}
	phaseProfiles = []func() Profile{Flux, Drift}
)

// byName maps every benchmark name to its profile's constructor, so a
// lookup builds only the profile asked for, and a name check none.
var byName = func() map[string]func() Profile {
	m := map[string]func() Profile{}
	for _, mks := range [][]func() Profile{paperProfiles, phaseProfiles} {
		for _, mk := range mks {
			m[mk().Name] = mk
		}
	}
	return m
}()

// build calls every constructor in mks.
func build(mks []func() Profile) []Profile {
	out := make([]Profile, len(mks))
	for i, mk := range mks {
		out[i] = mk()
	}
	return out
}

// Profiles returns the eight benchmark profiles in a stable order.
func Profiles() []Profile { return build(paperProfiles) }

// PhaseProfiles returns the phase-shifting workloads in a stable order.
// They are deliberately not part of Profiles: the paper's eight-benchmark
// sweeps (and their goldens) stay exactly as they were, and phase
// workloads are opted into by name.
func PhaseProfiles() []Profile { return build(phaseProfiles) }

// Names returns the benchmark names in the Profiles order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// CheckName reports whether ByName knows the benchmark name, with
// ByName's error when it does not. It builds no Profile.
func CheckName(name string) error {
	if _, ok := byName[name]; !ok {
		return fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return nil
}

// ByName builds the profile of a benchmark by name, one of the eight
// paper benchmarks or a phase-shifting workload. Every call builds a new
// Profile, so a caller may change its slices.
func ByName(name string) (Profile, error) {
	if err := CheckName(name); err != nil {
		return Profile{}, err
	}
	return byName[name](), nil
}
