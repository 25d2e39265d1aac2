// Package cpu is a cycle-level timing model of the multiple-issue
// out-of-order superscalar processor in the paper's Table 1, in the style
// of SimpleScalar's sim-outorder: 4-wide fetch/issue/commit, a 16-entry
// register update unit (RUU), an 8-entry load/store queue (LSQ), the
// Table 1 functional-unit mix, a combined branch predictor with a 4-way
// 512-entry BTB, and a 3-cycle misprediction penalty.
//
// The model is trace-driven: instruction streams carry resolved branch
// outcomes and memory addresses (internal/isa), and the core models the
// timing consequences — dependence stalls, structural hazards, cache
// latencies, and misprediction bubbles. Wrong-path instructions are not
// simulated; a mispredicted branch stalls fetch until it resolves plus the
// redirect penalty, the standard trace-driven treatment.
package cpu

import (
	"math"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
)

// DataCache is the data-side memory interface: the ICR cache implements it.
type DataCache interface {
	// Load returns the full latency of a data read at addr.
	Load(now uint64, addr uint64) uint64
	// Store returns the latency a store holds the pipeline (1 cycle when
	// buffered; more when a write-through buffer stalls).
	Store(now uint64, addr uint64) uint64
}

// HitPredictor is an optional DataCache extension: when implemented, the
// core uses it to enforce the MSHR limit (loads that would miss cannot
// issue while all miss registers are busy).
type HitPredictor interface {
	// WouldHit reports whether a load of addr would hit without changing
	// any cache state.
	WouldHit(addr uint64) bool
}

// DetailStream is an optional isa.Stream extension: a stream that writes
// its next instructions into a buffer in one call, which fetch uses below
// the commit budget (see refill). workload.Generator implements it.
//
// Fill writes up to len(buf) instructions into buf and returns how many
// it wrote; fewer than len(buf) means the stream has ended, and a later
// Fill writes none. Filling n instructions must draw exactly what n Next
// calls would, so the batch size never changes the stream.
type DetailStream interface {
	Fill(buf []isa.Inst) int
}

// QuotaStream is an optional DetailStream extension: a stream that Run
// tells, as it starts, how many more detailed draws it is now certain to
// make. That count is the commit budget less every instruction already
// drawn (committed, in flight, or waiting in the fetch buffer), the bound
// refill fills up to, so the Fill calls of a Run that reaches its budget
// draw at least the announced quota. A halted Run may stop short of it.
type QuotaStream interface {
	DetailStream
	Quota(n uint64)
}

// fetchBatch is the most instructions fetch draws from the stream at
// once.
const fetchBatch = 64

// Config holds the core's structural parameters. ZeroValue fields default
// to the paper's Table 1 machine via DefaultConfig.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	RUUSize     int
	LSQSize     int
	FetchQueue  int

	IntALUs   int // pipelined, 1-cycle
	IntMulDiv int // 1 multiplier/divider (mul pipelined, div not)
	FPALUs    int // pipelined, 2-cycle
	FPMulDiv  int // 1 multiplier/divider

	IntMulLat, IntDivLat uint64
	FPALULat             uint64
	FPMulLat, FPDivLat   uint64

	MemPorts      int    // cache ports available to loads per cycle
	MSHRs         int    // outstanding load misses supported (0 = unlimited)
	BranchPenalty uint64 // redirect cycles after a mispredict resolves

	RASDepth int

	// EachCycle, if non-nil, is the per-cycle hook (fault injection,
	// scrubbing, adaptive epochs). It returns the next cycle at which it
	// must run again; a hook that returns now+1 runs every cycle. The core
	// calls it first at cycle 0 and then at the first simulated cycle at
	// or after the returned one. The hook must change no state at the
	// cycles in between, because the core may skip them: a cycle in which
	// no pipeline stage makes progress jumps the clock to the next event,
	// and never past the hook's next cycle.
	EachCycle func(now uint64) (next uint64)

	// Halt, if non-nil, is polled once per simulated (not skipped) cycle
	// and every 256 warmed instructions; when it reports true the run
	// stops early with whatever has committed so far. The cancellable
	// simulator entry point (sim.SimulateContext) installs an atomic-flag
	// check here; the flag is set when the run's context is cancelled.
	Halt func() bool
}

// DefaultConfig returns the Table 1 core: 4-wide, RUU 16, LSQ 8, 4 integer
// ALUs + 1 mul/div, 4 FP ALUs + 1 mul/div, 3-cycle misprediction penalty.
// Functional-unit latencies follow SimpleScalar's defaults.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		RUUSize:     16,
		LSQSize:     8,
		FetchQueue:  8,
		IntALUs:     4,
		IntMulDiv:   1,
		FPALUs:      4,
		FPMulDiv:    1,
		IntMulLat:   3, IntDivLat: 20,
		FPALULat: 2,
		FPMulLat: 4, FPDivLat: 12,
		// A single dL1 port: the integrity-verification latency occupies
		// the port, which is the paper's premise for why multi-cycle
		// checks are costly on loads.
		MemPorts:      1,
		MSHRs:         8, // SimpleScalar-era non-blocking cache depth
		BranchPenalty: 3,
		RASDepth:      8,
	}
}

// Stats counts core-side events for one run.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	Branches     uint64 // control-transfer instructions seen
	Mispredicts  uint64
	Loads        uint64
	Stores       uint64
	FetchStalls  uint64 // cycles fetch was blocked (icache or redirect)
	RUUFull      uint64 // dispatch stalls due to a full RUU
	LSQFull      uint64 // dispatch stalls due to a full LSQ
	MSHRStalls   uint64 // load issues blocked on miss-register exhaustion
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

const neverDone = math.MaxUint64

// noProducer is the producer seq of a source operand that was ready at
// dispatch. Sequence numbers count up from 1, so no slot ever holds it.
const noProducer = math.MaxUint64

// entry is one RUU slot.
type entry struct {
	inst     isa.Inst
	seq      uint64
	issued   bool
	doneAt   uint64 // cycle the result is available (neverDone until issued)
	mispred  bool
	resolved bool // mispredict redirect accounted
	src      [2]producer
}

// producer locates the instruction a source operand waits for: its RUU
// slot and its seq, captured at dispatch.
type producer struct {
	slot int
	seq  uint64
}

// Core is the out-of-order engine.
type Core struct {
	cfg    Config
	stream isa.Stream
	icache cache.Level //icrvet:persistent aliases the pool owner's il1, which the owner resets directly
	dcache DataCache   //icrvet:persistent aliases the pool owner's dl1, which the owner resets directly

	pred *branch.Combined
	btb  *branch.BTB
	ras  *branch.RAS

	now   uint64
	stats Stats

	// Fetch state. The fetch queue is a fixed ring (head/count over a
	// cfg.FetchQueue-sized array), and instructions drawn from the stream
	// wait in a fixed buffer, fetchBuf[fbHead:fbLen], until fetch takes
	// them: a growing slice or an escaping instruction would allocate on
	// every fetched instruction.
	fetchQ       []fqEntry // ring buffer, len == cfg.FetchQueue
	fqHead       int
	fqCount      int
	fetchStall   uint64       // fetch blocked until this cycle
	detail       DetailStream // stream's batch fill, nil if it has none
	quota        QuotaStream  // stream told each Run's certain draws, nil if it has none
	fetchBuf     []isa.Inst   //icrvet:persistent scratch: only fetchBuf[fbHead:fbLen] is read, and Reset empties it
	fbHead       int
	fbLen        int
	streamDone   bool   // the stream has ended (fetchBuf is then empty)
	lastFetchBlk uint64 // last icache block fetched (to count per-block accesses)
	seqCounter   uint64

	// warmBuf is RunWarming's batch of functional-warming instructions,
	// allocated on the first RunWarming so exact runs never carry it.
	warmBuf []isa.Inst //icrvet:persistent scratch: RunWarming writes every slot it reads

	// Window.
	ruu      []entry
	ruuHead  int
	ruuCount int
	lsqCount int
	// unissued lists the RUU slots of not-yet-issued entries in dispatch
	// (= sequence) order, so issue() visits exactly the entries the full
	// head-to-tail scan would have attempted, without walking the issued
	// majority every cycle. Entries leave only by issuing (there is no
	// wrong-path squash), so the list never needs rebuilding.
	unissued []int
	// storesInWindow counts not-yet-committed stores in the RUU so the
	// per-load disambiguation scan can be skipped entirely when no store
	// is in flight (the common case).
	storesInWindow int

	// Non-pipelined FU reservation.
	intDivBusy uint64
	fpDivBusy  uint64

	// Data-cache port reservation: a load occupies a port for the L1-side
	// portion of its latency (a 2-cycle checked access holds the port for
	// 2 cycles — the integrity check is not pipelined), and stores take a
	// port for one cycle at commit.
	portFreeAt []uint64

	// missBusyUntil holds the completion cycles of in-flight load misses
	// (MSHR occupancy).
	missBusyUntil []uint64

	commitStall uint64 // commit blocked until this cycle (write-buffer stalls)
	maxInstrs   uint64 // commit budget for the current Run

	hookNext uint64 // cycle at which cfg.EachCycle must next run
}

type fqEntry struct {
	inst    isa.Inst
	seq     uint64
	readyAt uint64
	mispred bool
}

// New builds a core over the given instruction stream and memory
// hierarchy. Predictor state is created fresh per core.
func New(cfg Config, stream isa.Stream, icache cache.Level, dcache DataCache) *Core {
	if cfg.FetchWidth <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.FetchQueue <= 0 {
		// A zero-capacity queue could never feed dispatch; default to two
		// fetch groups, as in DefaultConfig.
		cfg.FetchQueue = 2 * cfg.FetchWidth
	}
	detail, _ := stream.(DetailStream)
	quota, _ := stream.(QuotaStream)
	return &Core{
		cfg:           cfg,
		stream:        stream,
		detail:        detail,
		quota:         quota,
		icache:        icache,
		dcache:        dcache,
		pred:          branch.NewCombined(branch.DefaultConfig()),
		btb:           branch.NewBTB(512, 4),
		ras:           branch.NewRAS(cfg.RASDepth),
		fetchQ:        make([]fqEntry, cfg.FetchQueue),
		fetchBuf:      make([]isa.Inst, fetchBatch),
		ruu:           make([]entry, cfg.RUUSize),
		unissued:      make([]int, 0, cfg.RUUSize),
		portFreeAt:    make([]uint64, cfg.MemPorts),
		missBusyUntil: make([]uint64, 0, cfg.MSHRs),
	}
}

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// Run simulates until maxInstructions have committed or the stream ends,
// and returns the final statistics. A QuotaStream is first told how many
// draws the run is certain to make.
func (c *Core) Run(maxInstructions uint64) Stats {
	c.maxInstrs = maxInstructions
	if drawn := c.drawn(); c.quota != nil && drawn < maxInstructions {
		c.quota.Quota(maxInstructions - drawn)
	}
	for c.stats.Instructions < maxInstructions {
		if c.streamDone && c.ruuCount == 0 && c.fqCount == 0 {
			break
		}
		if c.cfg.Halt != nil && c.cfg.Halt() {
			break
		}
		c.cycle(true)
	}
	return c.stats
}

// cycle simulates the cycle at c.now (fetch only when withFetch) and
// advances the clock past it.
//
// A cycle in which no stage changes any state and the hook is not due is
// idle, and every cycle after it repeats it exactly until one of the
// timestamps the stages compare now against comes due (nextEvent). The
// clock therefore jumps straight there, crediting each skipped cycle with
// the idle cycle's stall counts.
func (c *Core) cycle(withFetch bool) {
	fetchStalls, ruuFull := c.stats.FetchStalls, c.stats.RUUFull
	lsqFull, mshrStalls := c.stats.LSQFull, c.stats.MSHRStalls

	busy := c.commit()
	busy = c.issue() || busy
	busy = c.dispatch() || busy
	if withFetch {
		busy = c.fetch() || busy
	}
	if c.cfg.EachCycle != nil && c.now >= c.hookNext {
		c.hookNext = c.cfg.EachCycle(c.now)
		busy = true
	}

	next := c.now + 1
	if !busy {
		if ev := c.nextEvent(); ev > next && ev != neverDone {
			skip := ev - next
			c.stats.FetchStalls += skip * (c.stats.FetchStalls - fetchStalls)
			c.stats.RUUFull += skip * (c.stats.RUUFull - ruuFull)
			c.stats.LSQFull += skip * (c.stats.LSQFull - lsqFull)
			c.stats.MSHRStalls += skip * (c.stats.MSHRStalls - mshrStalls)
			next = ev
		}
	}
	c.now = next
	c.stats.Cycles = next
}

// nextEvent returns the earliest cycle after now at which a stage decision
// can change: every such decision compares now with one of the timestamps
// gathered here. It returns neverDone when nothing is pending.
func (c *Core) nextEvent() uint64 {
	t := c.now
	next := after(t, neverDone, c.commitStall)
	next = after(t, next, c.fetchStall)
	next = after(t, next, c.intDivBusy)
	next = after(t, next, c.fpDivBusy)
	if c.cfg.EachCycle != nil {
		next = after(t, next, c.hookNext)
	}
	if c.fqCount > 0 {
		next = after(t, next, c.fetchQ[c.fqHead].readyAt)
	}
	for _, x := range c.portFreeAt {
		next = after(t, next, x)
	}
	for _, x := range c.missBusyUntil {
		next = after(t, next, x)
	}
	i := c.ruuHead
	for n := 0; n < c.ruuCount; n++ {
		next = after(t, next, c.ruu[i].doneAt)
		if i++; i == len(c.ruu) {
			i = 0
		}
	}
	return next
}

// after returns x if it lies after t and before next, else next.
func after(t, next, x uint64) uint64 {
	if x > t && x < next {
		return x
	}
	return next
}

// ---------------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------------

// refill draws the next instructions into the empty fetch buffer and
// returns how many it drew, 0 once the stream has ended. A stream without
// Fill gives one instruction, when fetch needs it. A DetailStream is
// filled in batches, but never ahead of that one-by-one pace: every drawn
// instruction is committed, in the fetch queue or RUU, or (not now) in
// the buffer, and those below the commit budget are certain to be fetched
// before Run returns, so refill fills up to the budget at once and past
// it draws one. The split of the stream between detailed and warming
// draws therefore does not depend on batching: when Run returns, at most
// the one instruction an iL1 miss left waiting is drawn and not fetched.
func (c *Core) refill() int {
	n := 0
	if c.detail == nil {
		if in, ok := c.stream.Next(); ok {
			c.fetchBuf[0] = in
			n = 1
		}
	} else {
		want := 1
		if drawn := c.drawn(); drawn < c.maxInstrs {
			want = int(min(c.maxInstrs-drawn, uint64(len(c.fetchBuf))))
		}
		n = c.detail.Fill(c.fetchBuf[:want])
	}
	c.fbHead, c.fbLen = 0, n
	return n
}

// drawn returns how many instructions the core has drawn from its
// stream: every one is committed, in the RUU or fetch queue, or waiting
// in the fetch buffer.
func (c *Core) drawn() uint64 {
	return c.stats.Instructions + uint64(c.ruuCount+c.fqCount+c.fbLen-c.fbHead)
}

// fetch runs the fetch stage and reports whether it changed any state.
func (c *Core) fetch() bool {
	if c.now < c.fetchStall {
		c.stats.FetchStalls++
		return false
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fqCount >= len(c.fetchQ) || c.streamDone {
			return n > 0
		}
		if c.fbHead == c.fbLen && c.refill() == 0 {
			c.streamDone = true
			return true // the stream just ended
		}
		next := &c.fetchBuf[c.fbHead]
		// Instruction-cache access once per new block.
		blk := next.PC / 32 // Table 1: 32-byte iL1 blocks
		if blk != c.lastFetchBlk {
			c.lastFetchBlk = blk
			lat := c.icache.Access(c.now, next.PC, cache.Fetch)
			if lat > 1 {
				// Miss: this instruction arrives when the fill
				// completes, and waits at the buffer's head until then.
				c.fetchStall = c.now + lat
				return true
			}
		}
		c.fbHead++
		c.seqCounter++
		i := c.fqHead + c.fqCount
		if i >= len(c.fetchQ) {
			i -= len(c.fetchQ)
		}
		c.fqCount++
		fe := &c.fetchQ[i]
		fe.inst = *next
		fe.seq = c.seqCounter
		fe.readyAt = c.now + 1
		fe.mispred = false
		if in := &fe.inst; in.Op.IsCtrl() {
			fe.mispred = c.predict(in)
			if fe.mispred {
				c.stats.Mispredicts++
				// Trace-driven: stall fetch; the redirect is released
				// when the branch resolves (see issue()).
				c.fetchStall = neverDone
				return true
			}
			if in.Taken {
				// Can't fetch past a predicted-taken branch this cycle.
				return true
			}
		}
	}
	return true
}

// predict runs the front-end predictors for a control instruction and
// reports whether it is mispredicted. Predictor tables train at resolve
// time; the RAS is speculatively updated at fetch, as in real front ends.
func (c *Core) predict(in *isa.Inst) bool {
	c.stats.Branches++
	switch in.Op {
	case isa.OpBranch:
		dir := c.pred.Predict(in.PC)
		if dir != in.Taken {
			return true
		}
		if !in.Taken {
			return false
		}
		tgt, hit := c.btb.Lookup(in.PC)
		return !hit || tgt != in.Target
	case isa.OpJump:
		tgt, hit := c.btb.Lookup(in.PC)
		return !hit || tgt != in.Target
	case isa.OpCall:
		c.ras.Push(in.PC + 4)
		tgt, hit := c.btb.Lookup(in.PC)
		return !hit || tgt != in.Target
	case isa.OpReturn:
		tgt, ok := c.ras.Pop()
		return !ok || tgt != in.Target
	default:
		return false
	}
}

// resolveBranch trains the predictors when a control instruction executes
// and releases a pending redirect.
func (c *Core) resolveBranch(e *entry) {
	in := &e.inst
	switch in.Op {
	case isa.OpBranch:
		c.pred.Update(in.PC, in.Taken)
		if in.Taken {
			c.btb.Update(in.PC, in.Target)
		}
	case isa.OpJump, isa.OpCall:
		c.btb.Update(in.PC, in.Target)
	}
	if e.mispred && !e.resolved {
		e.resolved = true
		// Redirect: fetch resumes after resolution plus the penalty.
		c.fetchStall = e.doneAt + c.cfg.BranchPenalty
	}
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// dispatch moves ready fetch-queue entries into the RUU and reports
// whether it moved any.
func (c *Core) dispatch() bool {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fqCount == 0 || c.fetchQ[c.fqHead].readyAt > c.now {
			return n > 0
		}
		if c.ruuCount >= c.cfg.RUUSize {
			c.stats.RUUFull++
			return n > 0
		}
		fe := &c.fetchQ[c.fqHead]
		if fe.inst.Op.IsMem() && c.lsqCount >= c.cfg.LSQSize {
			c.stats.LSQFull++
			return n > 0
		}
		if c.fqHead++; c.fqHead == len(c.fetchQ) {
			c.fqHead = 0
		}
		c.fqCount--
		idx := c.ruuHead + c.ruuCount
		if idx >= len(c.ruu) {
			idx -= len(c.ruu)
		}
		// Every field of the slot is written in place: building the entry
		// as a value and copying it in costs a block copy per instruction.
		e := &c.ruu[idx]
		e.inst = fe.inst
		e.seq = fe.seq
		e.issued = false
		e.doneAt = neverDone
		e.mispred = fe.mispred
		e.resolved = false
		e.src[0] = c.producerOf(idx, fe.seq, fe.inst.SrcDist1)
		e.src[1] = c.producerOf(idx, fe.seq, fe.inst.SrcDist2)
		c.ruuCount++
		c.unissued = append(c.unissued, idx)
		if fe.inst.Op.IsMem() {
			c.lsqCount++
			if fe.inst.Op == isa.OpStore {
				c.storesInWindow++
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------------

// producerOf locates, for instruction seq being dispatched into slot idx,
// the producer `dist` instructions before it. The RUU holds a contiguous
// seq range (seqs are assigned at fetch, dispatched in order, and retired
// only from the head), so a producer still in the window sits dist slots
// behind idx. One outside the window (dist 0, or older than the head) has
// committed or predates the stream, and is ready for good.
func (c *Core) producerOf(idx int, seq uint64, dist uint16) producer {
	d := int(dist)
	if d == 0 || d > c.ruuCount {
		return producer{seq: noProducer}
	}
	slot := idx - d
	if slot < 0 {
		slot += len(c.ruu)
	}
	return producer{slot: slot, seq: seq - uint64(d)}
}

// ready reports whether a source's producer has its result by now: it has
// left its slot (committed, perhaps with the slot reused under a later
// seq) or it has finished executing.
func (c *Core) ready(p producer) bool {
	e := &c.ruu[p.slot]
	return e.seq != p.seq || e.doneAt <= c.now
}

// earlierStoreConflict reports whether an older, not-yet-committed store
// overlaps the load's word (conservative same-word disambiguation). With
// no store in the window — the common case, tracked by storesInWindow —
// the scan is skipped outright; otherwise only the entries older than the
// load are examined (the window is in seq order from the head).
func (c *Core) earlierStoreConflict(loadIdx int) bool {
	if c.storesInWindow == 0 {
		return false
	}
	word := c.ruu[loadIdx].inst.Addr &^ 7
	for i := c.ruuHead; i != loadIdx; {
		e := &c.ruu[i]
		if e.inst.Op == isa.OpStore && e.inst.Addr&^7 == word {
			return true
		}
		if i++; i == len(c.ruu) {
			i = 0
		}
	}
	return false
}

// opLatency returns the execution latency of a non-memory op and whether a
// non-pipelined unit must be reserved.
func (c *Core) opLatency(op isa.Op) (lat uint64, div bool) {
	switch op {
	case isa.OpIntMul:
		return c.cfg.IntMulLat, false
	case isa.OpIntDiv:
		return c.cfg.IntDivLat, true
	case isa.OpFPALU:
		return c.cfg.FPALULat, false
	case isa.OpFPMul:
		return c.cfg.FPMulLat, false
	case isa.OpFPDiv:
		return c.cfg.FPDivLat, true
	default:
		return 1, false
	}
}

// mshrsFull reports whether every miss register is occupied, retiring
// completed entries first. The occupancy list is bounded by cfg.MSHRs
// (checked before every append), so when it is not even full there is
// nothing to decide — and nothing to compact.
func (c *Core) mshrsFull() bool {
	if len(c.missBusyUntil) < c.cfg.MSHRs {
		return false
	}
	live := c.missBusyUntil[:0]
	for _, t := range c.missBusyUntil {
		if t > c.now {
			live = append(live, t)
		}
	}
	c.missBusyUntil = live
	return len(live) >= c.cfg.MSHRs
}

// freePort returns an available data-cache port index, or -1.
func (c *Core) freePort() int {
	for i, t := range c.portFreeAt {
		if t <= c.now {
			return i
		}
	}
	return -1
}

// issue starts ready instructions and reports whether it started any.
func (c *Core) issue() bool {
	issued := 0
	intALU, fpALU := c.cfg.IntALUs, c.cfg.FPALUs
	intMD, fpMD := c.cfg.IntMulDiv, c.cfg.FPMulDiv

	// Walk only the unissued entries (in sequence order); entries that
	// stay unissued this cycle are compacted back into the list in place.
	keep := c.unissued[:0]
	for li, idx := range c.unissued {
		if issued >= c.cfg.IssueWidth {
			keep = append(keep, c.unissued[li:]...)
			break
		}
		e := &c.ruu[idx]
		if !c.ready(e.src[0]) || !c.ready(e.src[1]) {
			keep = append(keep, idx)
			continue
		}
		op := e.inst.Op
		switch {
		case op == isa.OpLoad:
			if c.earlierStoreConflict(idx) {
				keep = append(keep, idx)
				continue
			}
			port := c.freePort()
			if port < 0 {
				keep = append(keep, idx)
				continue
			}
			if c.cfg.MSHRs > 0 && c.mshrsFull() {
				// A load that would miss cannot allocate a miss register.
				if hp, ok := c.dcache.(HitPredictor); ok && !hp.WouldHit(e.inst.Addr) {
					c.stats.MSHRStalls++
					keep = append(keep, idx)
					continue
				}
			}
			lat := c.dcache.Load(c.now, e.inst.Addr)
			// The port is held for the L1-side check latency (capped at
			// 2: longer latencies are miss service, handled by MSHRs).
			occ := lat
			if occ > 2 {
				occ = 2
			}
			c.portFreeAt[port] = c.now + occ
			if c.cfg.MSHRs > 0 && lat > occ {
				c.missBusyUntil = append(c.missBusyUntil, c.now+lat)
			}
			e.issued = true
			e.doneAt = c.now + lat
			c.stats.Loads++
		case op == isa.OpStore:
			// Stores "execute" (address/data ready) in one cycle; the
			// cache write happens at commit.
			e.issued = true
			e.doneAt = c.now + 1
		case op == isa.OpIntALU || op == isa.OpIntMul || op == isa.OpIntDiv:
			lat, isDiv := c.opLatency(op)
			if op == isa.OpIntALU {
				if intALU == 0 {
					keep = append(keep, idx)
					continue
				}
				intALU--
			} else {
				if intMD == 0 || (isDiv && c.intDivBusy > c.now) {
					keep = append(keep, idx)
					continue
				}
				intMD--
				if isDiv {
					c.intDivBusy = c.now + lat
				}
			}
			e.issued = true
			e.doneAt = c.now + lat
		case op == isa.OpFPALU || op == isa.OpFPMul || op == isa.OpFPDiv:
			lat, isDiv := c.opLatency(op)
			if op == isa.OpFPALU {
				if fpALU == 0 {
					keep = append(keep, idx)
					continue
				}
				fpALU--
			} else {
				if fpMD == 0 || (isDiv && c.fpDivBusy > c.now) {
					keep = append(keep, idx)
					continue
				}
				fpMD--
				if isDiv {
					c.fpDivBusy = c.now + lat
				}
			}
			e.issued = true
			e.doneAt = c.now + lat
		default: // control
			if intALU == 0 {
				keep = append(keep, idx)
				continue
			}
			intALU--
			e.issued = true
			e.doneAt = c.now + 1
			c.resolveBranch(e)
		}
		issued++
	}
	c.unissued = keep
	return issued > 0
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

// commit retires completed instructions from the RUU head and reports
// whether it retired any.
func (c *Core) commit() bool {
	if c.now < c.commitStall {
		return false
	}
	for n := 0; n < c.cfg.CommitWidth; n++ {
		if c.ruuCount == 0 || c.stats.Instructions >= c.maxInstrs {
			return n > 0
		}
		e := &c.ruu[c.ruuHead]
		if !e.issued || e.doneAt > c.now {
			return n > 0
		}
		if e.inst.Op == isa.OpStore {
			lat := c.dcache.Store(c.now, e.inst.Addr)
			c.stats.Stores++
			// Buffered stores don't stall commit, but they do consume
			// cache write bandwidth: queue one cycle on the least-busy
			// port.
			p := 0
			for i, t := range c.portFreeAt {
				if t < c.portFreeAt[p] {
					p = i
				}
			}
			if c.portFreeAt[p] < c.now {
				c.portFreeAt[p] = c.now
			}
			c.portFreeAt[p]++
			if lat > 1 {
				// A stalled store (full write-through buffer) holds the
				// commit stage.
				c.commitStall = c.now + lat - 1
			}
			c.lsqCount--
			c.storesInWindow--
		} else if e.inst.Op == isa.OpLoad {
			c.lsqCount--
		}
		if c.ruuHead++; c.ruuHead == len(c.ruu) {
			c.ruuHead = 0
		}
		c.ruuCount--
		c.stats.Instructions++
		if c.now < c.commitStall {
			return true
		}
	}
	return true
}

// Reset restores the core to its post-construction state for a new run —
// new per-run configuration (hooks differ run to run), new stream — while
// reusing every internal array: the fetch ring, RUU, issue list, port and
// MSHR reservations, and the branch predictor tables. Structure sizes are
// taken from cfg exactly as New takes them; an array whose configured size
// changed is reallocated, so Reset is correct (just not allocation-free)
// across machine geometries. Stale entries beyond the reset ring counts
// are unreachable: fetch and dispatch fully overwrite a slot before the
// counts make it visible.
func (c *Core) Reset(cfg Config, stream isa.Stream) {
	if cfg.FetchWidth <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.FetchQueue <= 0 {
		cfg.FetchQueue = 2 * cfg.FetchWidth
	}
	c.cfg = cfg
	c.stream = stream
	c.detail, _ = stream.(DetailStream)
	c.quota, _ = stream.(QuotaStream)

	c.pred.Reset()
	c.btb.Reset()
	if c.ras.Cap() != cfg.RASDepth {
		c.ras = branch.NewRAS(cfg.RASDepth)
	} else {
		c.ras.Reset()
	}

	c.now = 0
	c.stats = Stats{}

	if len(c.fetchQ) != cfg.FetchQueue {
		c.fetchQ = make([]fqEntry, cfg.FetchQueue)
	}
	c.fqHead = 0
	c.fqCount = 0
	c.fetchStall = 0
	c.fbHead = 0
	c.fbLen = 0
	c.streamDone = false
	c.lastFetchBlk = 0
	c.seqCounter = 0

	if len(c.ruu) != cfg.RUUSize {
		c.ruu = make([]entry, cfg.RUUSize)
		c.unissued = make([]int, 0, cfg.RUUSize)
	}
	c.ruuHead = 0
	c.ruuCount = 0
	c.lsqCount = 0
	c.unissued = c.unissued[:0]
	c.storesInWindow = 0

	c.intDivBusy = 0
	c.fpDivBusy = 0
	if len(c.portFreeAt) != cfg.MemPorts {
		c.portFreeAt = make([]uint64, cfg.MemPorts)
	} else {
		clear(c.portFreeAt)
	}
	if cap(c.missBusyUntil) < cfg.MSHRs {
		c.missBusyUntil = make([]uint64, 0, cfg.MSHRs)
	}
	c.missBusyUntil = c.missBusyUntil[:0]
	c.commitStall = 0
	c.maxInstrs = 0
	c.hookNext = 0
}
