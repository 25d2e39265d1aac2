// Package workload synthesizes deterministic instruction streams whose
// locality characteristics model the eight Spec2000 applications the paper
// evaluates (§4). The paper's results are driven by reference locality —
// hot blocks attract replicas, dead blocks make room for them — so each
// profile reproduces an application's locality class (working-set sizes,
// pointer-chasing vs. streaming, branch predictability, code footprint)
// rather than its computation.
//
// A generated program is a static set of functions made of basic blocks;
// every static instruction has a fixed op class, and every static memory
// slot is bound to a data region. The dynamic walk re-executes this static
// code with per-visit branch outcomes, loop trip counts, and region
// addresses, all drawn from a seeded RNG, so a given (profile, seed) pair
// always produces the identical stream.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
)

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name string

	// Instruction mix (fractions of non-terminator instructions; the
	// remainder is integer ALU work).
	LoadFrac  float64
	StoreFrac float64
	FPFrac    float64 // fraction of ALU work that is floating point
	MulFrac   float64 // fraction of ALU work that is multiply
	DivFrac   float64 // fraction of ALU work that is divide

	// Static code shape.
	CodeBlocks   int       // total basic blocks across all functions
	MeanBlockLen int       // mean instructions per block (excl. terminator)
	Funcs        int       // number of callable functions (>= 2)
	LoopFrac     float64   // fraction of blocks that are loop heads
	LoopMean     int       // mean dynamic trip count of a loop
	CondBias     []float64 // per-block taken-bias choices for if-branches

	// Data regions.
	Regions []RegionSpec

	// DepGeomP is the parameter of the geometric dependence-distance
	// distribution (larger = tighter dependences = less ILP).
	DepGeomP float64

	// LoadUseProb is the probability that the instruction following a
	// load consumes the load's result (distance-1 dependence). Real code
	// uses most load results within an instruction or two, which is what
	// exposes load-hit latency — the effect behind the paper's
	// BaseP-vs-BaseECC gap. Defaults to 0.55 when zero.
	LoadUseProb float64

	// Phases, when non-empty, makes the workload shift locality regime
	// mid-run: at each phase's start (in dynamic instructions) the static
	// code's region bindings are remapped through the phase's Map. Static
	// code is built once — a slot bound to region i at build time accesses
	// region Map[i] while the phase is active — so a shift instantly
	// redirects the whole access mix without perturbing code layout,
	// control flow, or any other RNG draw. Profiles without phases draw
	// nothing extra: their streams are byte-identical to pre-phase builds.
	Phases []PhaseSpec

	// PhasePeriod, when > 0, repeats the phase schedule cyclically every
	// PhasePeriod instructions. 0 runs the schedule once; the last phase
	// then persists to the end of the run.
	PhasePeriod uint64
}

// PhaseSpec is one locality regime in a phase schedule.
type PhaseSpec struct {
	// Start is the dynamic instruction count (within the period, when
	// PhasePeriod > 0) at which the phase begins.
	Start uint64
	// Jitter widens the start by a seeded draw in [0, Jitter), so phase
	// boundaries do not align with observation or sampling windows. The
	// draw happens once at generator construction.
	Jitter uint64
	// Map remaps static region bindings for the duration of the phase: a
	// slot bound to region i accesses region Map[i]. Must have exactly one
	// entry per profile region.
	Map []int
}

// Validate reports configuration errors.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile needs a name")
	case p.LoadFrac < 0 || p.StoreFrac < 0 || p.LoadFrac+p.StoreFrac > 0.9:
		return fmt.Errorf("workload %s: bad load/store mix", p.Name)
	case p.CodeBlocks < 4 || p.MeanBlockLen < 2:
		return fmt.Errorf("workload %s: code too small", p.Name)
	case len(p.Regions) == 0:
		return fmt.Errorf("workload %s: no data regions", p.Name)
	case p.DepGeomP <= 0 || p.DepGeomP >= 1:
		return fmt.Errorf("workload %s: DepGeomP out of range", p.Name)
	}
	for i, ph := range p.Phases {
		if len(ph.Map) != len(p.Regions) {
			return fmt.Errorf("workload %s: phase %d maps %d regions, profile has %d",
				p.Name, i, len(ph.Map), len(p.Regions))
		}
		for _, to := range ph.Map {
			if to < 0 || to >= len(p.Regions) {
				return fmt.Errorf("workload %s: phase %d maps to region %d (out of range)", p.Name, i, to)
			}
		}
		if i > 0 && ph.Start <= p.Phases[i-1].Start {
			return fmt.Errorf("workload %s: phase starts must be strictly increasing", p.Name)
		}
		if p.PhasePeriod > 0 && ph.Start+ph.Jitter >= p.PhasePeriod {
			return fmt.Errorf("workload %s: phase %d start+jitter reaches past the period", p.Name, i)
		}
	}
	return nil
}

// staticInst is one slot of static code.
type staticInst struct {
	op     isa.Op
	region int // memory region index for loads/stores
}

// block is a static basic block. Its final instruction is a terminator
// decided by kind.
type block struct {
	insts   []staticInst
	startPC uint64
	kind    blockKind
	taken   uint64 // condKind: lessThan of the taken bias (see source.float)
	callee  int    // function index for callKind
	isLast  bool   // last block of its function
}

type blockKind uint8

const (
	plainKind blockKind = iota + 1 // falls through (no terminator emitted)
	condKind                       // conditional branch, may skip next block
	loopKind                       // loop back-edge branch
	callKind                       // calls callee, then falls through
)

type fn struct {
	blocks []int // indices into Generator.blocks
}

// Generator produces the dynamic instruction stream, which never ends. A
// run draws it in batches through Fill and FillWarm (the run stream in
// internal/sim hands them to cpu.Core).
type Generator struct {
	profile Profile
	src     source     // the state every draw comes from
	rng     *rand.Rand // over &src, for the draws not taken from src directly
	cuts    cuts
	blocks  []block
	funcs   []fn
	regions []*region

	// Dynamic state.
	stack      []frameState
	count      uint64  // dynamic instructions emitted
	loopLeft   []int32 // per block: trips left in the loop, -1 = none drawn
	sinceLoad  int     // body instructions since the last load (0 = load itself)
	lastLoadAt uint64  // dynamic index of the most recent load

	// Phase state (see Profile.Phases). phaseStarts holds each phase's
	// jittered start offset; regionMap is the active remap (nil =
	// identity); nextPhaseAt is the absolute instruction count of the next
	// shift (^0 when the schedule is exhausted).
	phaseStarts []uint64
	phaseIdx    int
	cycleBase   uint64
	regionMap   []int
	nextPhaseAt uint64
}

// cuts holds the detailed path's Float64 tests as integer thresholds on
// source.float: each names the test it replaces.
type cuts struct {
	noDep   uint64 // lessThan(0.15): depDistance draws no dependence
	depMore uint64 // atMost(DepGeomP): depDistance's distance grows
	src2    uint64 // lessThan(0.4): a second source operand
	loadUse uint64 // lessThan(LoadUseProb): use of the previous load
	use2    uint64 // lessThan(0.35): use of the load two back
	chain   uint64 // lessThan(0.55): a load's address from an earlier load
}

type frameState struct {
	fn    int
	block int // position within fn.blocks
	inst  int // next instruction within the block (len == terminator)
}

// codeBase is where generated code begins; dataBase is where regions are
// laid out (far apart so code and data never alias).
const (
	codeBase = 0x0040_0000
	dataBase = 0x1000_0000
)

// New builds a generator for the profile with the given seed. The same
// (profile, seed) pair always yields the same stream.
func New(p Profile, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lup := p.LoadUseProb
	if lup == 0 {
		lup = 0.55
	}
	g := &Generator{
		profile: p,
		cuts: cuts{
			noDep:   lessThan(0.15),
			depMore: atMost(p.DepGeomP),
			src2:    lessThan(0.4),
			loadUse: lessThan(lup),
			use2:    lessThan(0.35),
			chain:   lessThan(0.55),
		},
		stack: []frameState{{fn: 0}},
	}
	g.src.Seed(seed ^ 0x5eed)
	g.rng = rand.New(&g.src)
	g.layoutRegions()
	g.buildCode()
	g.loopLeft = make([]int32, len(g.blocks))
	for i := range g.loopLeft {
		g.loopLeft[i] = -1
	}
	g.initPhases()
	return g, nil
}

// initPhases draws each phase's jittered start and arms the first shift.
// Profiles without phases make zero RNG draws here, keeping their streams
// byte-identical to builds that predate phase support.
func (g *Generator) initPhases() {
	g.nextPhaseAt = ^uint64(0)
	phases := g.profile.Phases
	if len(phases) == 0 {
		return
	}
	g.phaseStarts = make([]uint64, len(phases))
	for i, ph := range phases {
		start := ph.Start
		if ph.Jitter > 0 {
			start += uint64(g.rng.Int63n(int64(ph.Jitter)))
		}
		g.phaseStarts[i] = start
	}
	g.nextPhaseAt = g.phaseStarts[0]
}

// phaseCheck applies any phase shift due at the current instruction count.
// The common case (no phases, or between shifts) is one comparison.
func (g *Generator) phaseCheck() {
	for g.count >= g.nextPhaseAt {
		g.regionMap = g.profile.Phases[g.phaseIdx].Map
		g.phaseIdx++
		switch {
		case g.phaseIdx < len(g.phaseStarts):
			g.nextPhaseAt = g.cycleBase + g.phaseStarts[g.phaseIdx]
		case g.profile.PhasePeriod > 0:
			g.cycleBase += g.profile.PhasePeriod
			g.phaseIdx = 0
			g.nextPhaseAt = g.cycleBase + g.phaseStarts[0]
		default:
			g.nextPhaseAt = ^uint64(0)
		}
	}
}

// regionOf resolves a static region binding through the active phase map.
func (g *Generator) regionOf(idx int) *region {
	if g.regionMap != nil {
		idx = g.regionMap[idx]
	}
	return g.regions[idx]
}

// MustNew is New for static profiles known to be valid.
func MustNew(p Profile, seed int64) *Generator {
	g, err := New(p, seed)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Generator) layoutRegions() {
	for i, rr := range Layout(g.profile) {
		g.regions = append(g.regions, newRegion(g.profile.Regions[i], rr.Start, g.rng))
	}
}

// RegionRange is the placed byte-address extent of one data region.
type RegionRange struct {
	Kind       RegionKind
	Start, End uint64
}

// Layout returns the deterministic address range of each region in a
// profile, in declaration order. Region placement does not depend on the
// seed, so callers (e.g. software replication-hint policies) can compute
// it without building a generator.
func Layout(p Profile) []RegionRange {
	out := make([]RegionRange, 0, len(p.Regions))
	base := uint64(dataBase)
	for _, spec := range p.Regions {
		span := spec.Size
		if spec.Kind == Hot && spec.SetSpread > 0 {
			// Set-concentrated hot regions stretch across layers that are
			// a full 64-set span apart (see region.next).
			nblk := spec.Size / blockBytes
			s := uint64(spec.SetSpread)
			layers := (nblk + s - 1) / s
			span = layers * 64 * blockBytes
		}
		out = append(out, RegionRange{Kind: spec.Kind, Start: base, End: base + span})
		// Pad between regions to avoid accidental adjacency.
		base += span + 1<<20
	}
	return out
}

// pickRegion selects a region index by weight.
func (g *Generator) pickRegion() int {
	var total float64
	for _, r := range g.regions {
		total += r.spec.Weight
	}
	x := g.rng.Float64() * total
	for i, r := range g.regions {
		x -= r.spec.Weight
		if x <= 0 {
			return i
		}
	}
	return len(g.regions) - 1
}

// pickALU draws an ALU op class from the profile mix.
func (g *Generator) pickALU() isa.Op {
	p := &g.profile
	y := g.rng.Float64()
	fp := g.rng.Float64() < p.FPFrac
	switch {
	case y < p.DivFrac:
		if fp {
			return isa.OpFPDiv
		}
		return isa.OpIntDiv
	case y < p.DivFrac+p.MulFrac:
		if fp {
			return isa.OpFPMul
		}
		return isa.OpIntMul
	default:
		if fp {
			return isa.OpFPALU
		}
		return isa.OpIntALU
	}
}

// stochRound rounds x to an integer, rounding the fractional part up with
// probability equal to its value, so quotas are unbiased for short blocks.
func (g *Generator) stochRound(x float64) int {
	n := int(x)
	if g.rng.Float64() < x-float64(n) {
		n++
	}
	return n
}

// blockOps assigns op classes to a block's body using per-block quotas for
// loads and stores (stochastically rounded, then shuffled), which keeps the
// dynamic instruction mix close to the profile even for small code
// footprints.
func (g *Generator) blockOps(length int) []isa.Op {
	p := &g.profile
	nLoad := g.stochRound(float64(length) * p.LoadFrac)
	nStore := g.stochRound(float64(length) * p.StoreFrac)
	if nLoad+nStore > length {
		nStore = length - nLoad
		if nStore < 0 {
			nStore, nLoad = 0, length
		}
	}
	ops := make([]isa.Op, 0, length)
	for i := 0; i < nLoad; i++ {
		ops = append(ops, isa.OpLoad)
	}
	for i := 0; i < nStore; i++ {
		ops = append(ops, isa.OpStore)
	}
	for len(ops) < length {
		ops = append(ops, g.pickALU())
	}
	g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (g *Generator) buildCode() {
	p := &g.profile
	nf := p.Funcs
	if nf < 2 {
		nf = 2
	}
	perFn := p.CodeBlocks / nf
	if perFn < 2 {
		perFn = 2
	}
	pc := uint64(codeBase)
	for f := 0; f < nf; f++ {
		var fb fn
		for b := 0; b < perFn; b++ {
			length := 1 + g.rng.Intn(2*p.MeanBlockLen-1) // mean ~= MeanBlockLen
			blk := block{startPC: pc, kind: plainKind}
			for _, op := range g.blockOps(length) {
				si := staticInst{op: op}
				if op.IsMem() {
					si.region = g.pickRegion()
				}
				blk.insts = append(blk.insts, si)
			}
			// Decide the terminator kind. The last block of a function
			// always returns (main loops instead).
			last := b == perFn-1
			blk.isLast = last
			if !last {
				switch r := g.rng.Float64(); {
				case r < p.LoopFrac:
					blk.kind = loopKind
				case f == 0 && b%2 == 0 && nf > 1:
					// Main alternates calls to the other functions.
					blk.kind = callKind
					blk.callee = 1 + g.rng.Intn(nf-1)
				case len(p.CondBias) > 0 && b+2 < perFn:
					blk.kind = condKind
					blk.taken = lessThan(p.CondBias[g.rng.Intn(len(p.CondBias))])
				}
			}
			// Plain interior blocks fall through without a terminator
			// instruction; every other kind ends with one.
			termSlots := 0
			if blk.isLast || blk.kind != plainKind {
				termSlots = 1
			}
			pc += uint64(4 * (len(blk.insts) + termSlots))
			fb.blocks = append(fb.blocks, len(g.blocks))
			g.blocks = append(g.blocks, blk)
		}
		g.funcs = append(g.funcs, fb)
	}
}

// depDistance draws a dependence distance (0 = none). The loop draws
// before it tests d, so a distance of 15 still costs its draw.
func (g *Generator) depDistance() uint16 {
	if g.src.float() < g.cuts.noDep {
		return 0
	}
	d := 1
	for g.src.float() >= g.cuts.depMore && d < 15 {
		d++
	}
	return uint16(d)
}

// Next is Fill for a single instruction. The stream is infinite. The
// core only ever fills in batches; Next stays for perf's replay, which
// times the generator one instruction at a time.
func (g *Generator) Next() (isa.Inst, bool) {
	var buf [1]isa.Inst
	g.Fill(buf[:])
	return buf[0], true
}

// Fill writes the next len(buf) instructions of the detailed stream into
// buf, in place, and returns len(buf): the stream never ends. Filling n
// instructions draws exactly what n Next calls would, so any split of a
// detailed stretch into batches yields the same stream.
func (g *Generator) Fill(buf []isa.Inst) int { return g.fill(buf, false) }

// emitBody materializes a body instruction from its static slot into *in.
func (g *Generator) emitBody(blk *block, idx int, in *isa.Inst) {
	si := blk.insts[idx]
	*in = isa.Inst{
		PC:       blk.startPC + uint64(4*idx),
		Op:       si.op,
		SrcDist1: g.depDistance(),
	}
	if g.src.float() < g.cuts.src2 {
		in.SrcDist2 = g.depDistance()
	}
	// Loop-carried dependence: the first slot of a loop body models the
	// induction variable, depending on itself one iteration back. This
	// keeps successive iterations from being fully independent, as in
	// real loops.
	if blk.kind == loopKind && idx == 0 {
		iterLen := len(blk.insts) + 1 // body + back-edge branch
		if iterLen < 1<<16 {
			in.SrcDist1 = uint16(iterLen)
		}
	}
	// Load-use chains: consume a recent load's result directly. Most real
	// load results are used within one or two instructions, which is what
	// exposes load-hit latency.
	if g.sinceLoad == 1 {
		if g.src.float() < g.cuts.loadUse {
			in.SrcDist1 = 1
		}
	} else if g.sinceLoad == 2 && g.src.float() < g.cuts.use2 {
		in.SrcDist2 = 2
	}
	if si.op == isa.OpLoad {
		g.sinceLoad = 0
	} else if g.sinceLoad < 1<<30 {
		g.sinceLoad++
	}
	if si.op.IsMem() {
		r := g.regionOf(si.region)
		in.Addr = r.next(g.rng, si.op == isa.OpStore)
		in.Size = 8
		if si.op == isa.OpLoad {
			// Pointer chases serialize: each chase load depends on the
			// previous load of the same region.
			if r.spec.Kind == Chase && r.lastLoadAt > 0 {
				gap := g.count - r.lastLoadAt
				if gap >= 1 && gap < 512 {
					in.SrcDist1 = uint16(gap)
				}
			} else if g.lastLoadAt > 0 && g.src.float() < g.cuts.chain {
				// Address chains: many loads compute their address from
				// an earlier load (field access through a pointer, array
				// index loaded from memory), making load latency
				// cumulative rather than overlappable.
				gap := g.count - g.lastLoadAt
				if gap >= 1 && gap < 256 {
					in.SrcDist1 = uint16(gap)
				}
			}
			r.lastLoadAt = g.count
			g.lastLoadAt = g.count
		}
	}
}

// emitTerminator handles the end of a block, updating the frame. It
// writes the control instruction to *in and returns true, or returns
// false, leaving *in alone, for a plain fall-through.
func (g *Generator) emitTerminator(top *frameState, blk *block, bi int, in *isa.Inst) bool {
	termPC := blk.startPC + uint64(4*len(blk.insts))
	f := &g.funcs[top.fn]

	switch {
	case blk.isLast:
		if top.fn == 0 {
			// Main loops forever: jump back to its first block.
			first := &g.blocks[f.blocks[0]]
			top.block, top.inst = 0, 0
			*in = isa.Inst{PC: termPC, Op: isa.OpJump, Taken: true, Target: first.startPC}
			return true
		}
		// Return to caller.
		g.stack = g.stack[:len(g.stack)-1]
		caller := &g.stack[len(g.stack)-1]
		cf := &g.funcs[caller.fn]
		cblk := &g.blocks[cf.blocks[caller.block]]
		retPC := cblk.startPC + uint64(4*len(cblk.insts)) + 4
		caller.block++ // resume at the next block
		caller.inst = 0
		*in = isa.Inst{PC: termPC, Op: isa.OpReturn, Taken: true, Target: retPC}
		return true

	case blk.kind == loopKind:
		left := g.loopLeft[bi]
		if left < 0 {
			// Trip count drawn per loop entry: 1 + geometric around mean.
			mean := g.profile.LoopMean
			if mean < 1 {
				mean = 4
			}
			left = int32(1 + g.rng.Intn(2*mean-1))
		}
		left--
		if left > 0 {
			g.loopLeft[bi] = left
			top.inst = 0 // re-run this block
			*in = isa.Inst{PC: termPC, Op: isa.OpBranch, Taken: true, Target: blk.startPC}
			return true
		}
		g.loopLeft[bi] = -1
		top.block++
		top.inst = 0
		*in = isa.Inst{PC: termPC, Op: isa.OpBranch, Taken: false, Target: blk.startPC}
		return true

	case blk.kind == condKind:
		taken := g.src.float() < blk.taken
		if taken && top.block+2 < len(f.blocks) {
			skip := &g.blocks[f.blocks[top.block+2]]
			top.block += 2
			top.inst = 0
			*in = isa.Inst{PC: termPC, Op: isa.OpBranch, Taken: true, Target: skip.startPC}
			return true
		}
		top.block++
		top.inst = 0
		*in = isa.Inst{PC: termPC, Op: isa.OpBranch, Taken: false}
		return true

	case blk.kind == callKind:
		callee := &g.funcs[blk.callee]
		first := &g.blocks[callee.blocks[0]]
		top.inst = len(blk.insts) + 1 // mark terminator consumed (cosmetic)
		g.stack = append(g.stack, frameState{fn: blk.callee})
		*in = isa.Inst{PC: termPC, Op: isa.OpCall, Taken: true, Target: first.startPC}
		return true

	default: // plainKind: fall through, no instruction
		top.block++
		top.inst = 0
		return false
	}
}

// FillWarm writes the next len(buf) instructions of the
// functional-warming stream into buf, in place, and returns len(buf): the
// stream never ends. It produces each instruction's op, PC, address, and
// branch outcome — everything a functional model needs to keep caches,
// replication state, and branch predictors warm — but skips the draws that
// only parameterize out-of-order timing (dependence distances and load-use
// chains), which dominate Next's cost. Control flow, trip counts, and
// address streams are drawn from the same RNG with the same distributions,
// so the warmed stream is statistically identical to the detailed one; it
// is NOT the same realization (the per-instruction RNG draw sequence
// differs), which is exactly the accuracy contract of sampled simulation.
//
// Filling n instructions at once draws exactly what n NextWarm calls
// would, so any split of a warming stretch into batches yields the same
// stream.
func (g *Generator) FillWarm(buf []isa.Inst) int { return g.fill(buf, true) }

// fill writes the next len(buf) instructions of the warming stream (warm)
// or the detailed one into buf and returns len(buf). The two streams walk
// the same code and draw control flow and addresses alike; a detailed
// body instruction also draws its dependences (emitBody).
func (g *Generator) fill(buf []isa.Inst, warm bool) int {
	for i := 0; i < len(buf); {
		g.phaseCheck()
		top := &g.stack[len(g.stack)-1]
		bi := g.funcs[top.fn].blocks[top.block]
		blk := &g.blocks[bi]
		if top.inst >= len(blk.insts) {
			// plainKind emits no terminator instruction: it falls through.
			if g.emitTerminator(top, blk, bi, &buf[i]) {
				i++
				g.count++
			}
			continue
		}
		// Emit the rest of the block's body, up to the end of buf and
		// short of the next phase shift, which must see every count.
		n := min(len(blk.insts)-top.inst, len(buf)-i)
		if left := g.nextPhaseAt - g.count; left < uint64(n) {
			n = int(left)
		}
		if !warm {
			for range n {
				g.emitBody(blk, top.inst, &buf[i])
				top.inst++
				i++
				g.count++
			}
			continue
		}
		pc := blk.startPC + uint64(4*top.inst)
		for _, si := range blk.insts[top.inst : top.inst+n] {
			in := &buf[i]
			*in = isa.Inst{PC: pc, Op: si.op}
			// Dependence bookkeeping (sinceLoad, lastLoadAt) is kept — it
			// is assignment-only and lets the first detailed window after
			// a warming stretch draw its load-use and address chains from
			// accurate state. Only the RNG draws are skipped.
			if si.op == isa.OpLoad {
				g.sinceLoad = 0
			} else if g.sinceLoad < 1<<30 {
				g.sinceLoad++
			}
			if si.op.IsMem() {
				r := g.regionOf(si.region)
				in.Addr = r.next(g.rng, si.op == isa.OpStore)
				in.Size = 8
				if si.op == isa.OpLoad {
					r.lastLoadAt = g.count
					g.lastLoadAt = g.count
				}
			}
			pc += 4
			i++
			g.count++
		}
		top.inst += n
	}
	return len(buf)
}

// NextWarm returns the next functional-warming instruction: FillWarm for
// a single instruction. Like Next, it stays for perf's replay.
func (g *Generator) NextWarm() (isa.Inst, bool) {
	var buf [1]isa.Inst
	g.FillWarm(buf[:])
	return buf[0], true
}

// Count returns the number of instructions emitted so far.
func (g *Generator) Count() uint64 { return g.count }
