// Package cpu is a cycle-level timing model of the multiple-issue
// out-of-order superscalar processor in the paper's Table 1, in the style
// of SimpleScalar's sim-outorder: 4-wide fetch/issue/commit, a 16-entry
// register update unit (RUU), an 8-entry load/store queue (LSQ), the
// Table 1 functional-unit mix, a combined branch predictor with a 4-way
// 512-entry BTB, and a 3-cycle misprediction penalty.
//
// The model is trace-driven: the core draws its instructions from one
// Stream (detailed batches through Fill, functional-warming batches
// through FillWarm), and they carry resolved branch outcomes and memory
// addresses (internal/isa). The core models the timing consequences —
// dependence stalls, structural hazards, cache latencies, and
// misprediction bubbles. Wrong-path instructions are not simulated; a
// mispredicted branch stalls fetch until it resolves plus the redirect
// penalty, the standard trace-driven treatment.
//
// Every instruction the core draws lives in one instruction window, a
// ring indexed by the instruction's sequence number, from the moment the
// stream writes it there until it commits. The fetch buffer, the fetch
// queue and the RUU are consecutive seq ranges of that ring, split by
// cursors, so moving an instruction to the next stage moves a cursor and
// copies nothing.
//
// Wakeup follows sim-outorder's dependence lists rather than re-reading
// every waiting entry's sources each cycle. Dispatch records each entry
// as a consumer of its producers that have not issued; issuing a producer
// hands its result cycle to its consumers, and an entry whose producers
// have all issued joins the known mask. Issue walks only the waiting,
// known entries, oldest first, and compares one cycle for each. Loads
// check only the older stores, through a mask of the RUU's stores.
package cpu

import (
	"fmt"
	"math"
	"math/bits"

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

// Stream is where the core draws its instructions from, in program
// order. Run and fetch draw the detailed stream, RunWarming the warming
// one; sim's run stream is the one production Stream.
//
// Fill writes the next detailed instructions into buf, at most len(buf),
// and returns how many it wrote. A Fill that writes none means the stream
// has ended, and every later Fill writes none; a Fill may write fewer
// than len(buf) without the stream having ended. Filling n instructions
// in one call draws exactly what n calls of one would, so the batch size
// never changes the stream: fetch splits a batch that would cross the end
// of its instruction window into two.
//
// FillWarm writes the next functional-warming instructions, which may
// skip the draws that only matter to out-of-order timing (dependence
// distances, load-use chains): the warmed stream must be statistically
// identical to the detailed one — same control flow, same address
// distributions — but need not be the same realization. It returns how
// many it wrote; fewer than len(buf) means the stream has ended. Filling
// n instructions draws exactly what n single-instruction fills would.
//
// Quota tells the stream, as Run starts, how many more detailed draws the
// Run is now certain to make. That count is the commit budget less every
// instruction already drawn (committed, in flight, or waiting in the
// fetch buffer), the bound refill fills up to, so the Fills of a Run that
// reaches its budget draw at least the announced quota. A halted Run may
// stop short of it.
type Stream interface {
	Fill(buf []isa.Inst) int
	FillWarm(buf []isa.Inst) int
	Quota(n uint64)
}

// fetchBatch is the most instructions fetch draws from the stream at
// once.
const fetchBatch = 64

// maxRUU is the largest RUU the model runs: the RUU's per-entry masks
// are the bits of one uint64, indexed by seq&slotMask.
const maxRUU = 64

// slotMask maps a seq to its RUU slot, the bit that stands for it in the
// RUU's masks. The RUU holds at most maxRUU consecutive seqs, so no two
// live entries share a slot.
const slotMask = maxRUU - 1

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

// withDefaults returns the configuration New runs for cfg: a non-positive
// FetchWidth selects the Table 1 core, keeping cfg's hooks, and a
// non-positive FetchQueue two fetch groups (a zero-capacity queue could
// never feed dispatch).
func (cfg Config) withDefaults() Config {
	if cfg.FetchWidth <= 0 {
		d := DefaultConfig()
		d.EachCycle, d.Halt = cfg.EachCycle, cfg.Halt
		cfg = d
	}
	if cfg.FetchQueue <= 0 {
		cfg.FetchQueue = 2 * cfg.FetchWidth
	}
	return cfg
}

// Validate reports a core the model cannot run, judged after New's
// defaults (which leave FetchWidth and FetchQueue positive): a width,
// queue, port, functional-unit count or RAS depth below 1, on which some
// stage never makes progress again, a negative MSHR count, or an RUU
// larger than maxRUU.
func (cfg Config) Validate() error {
	cfg = cfg.withDefaults()
	for _, f := range []struct {
		name string
		n    int
	}{
		{"IssueWidth", cfg.IssueWidth},
		{"CommitWidth", cfg.CommitWidth},
		{"RUUSize", cfg.RUUSize},
		{"LSQSize", cfg.LSQSize},
		{"IntALUs", cfg.IntALUs},
		{"IntMulDiv", cfg.IntMulDiv},
		{"FPALUs", cfg.FPALUs},
		{"FPMulDiv", cfg.FPMulDiv},
		{"MemPorts", cfg.MemPorts},
		{"RASDepth", cfg.RASDepth},
	} {
		if f.n < 1 {
			return fmt.Errorf("cpu: %s is %d, want at least 1", f.name, f.n)
		}
	}
	if cfg.RUUSize > maxRUU {
		return fmt.Errorf("cpu: RUUSize is %d, want at most %d", cfg.RUUSize, maxRUU)
	}
	if cfg.MSHRs < 0 {
		return fmt.Errorf("cpu: MSHRs is %d, want 0 (unlimited) or more", cfg.MSHRs)
	}
	return nil
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

// entry is the timing state of one instruction in the window, written
// whole when fetch takes the instruction.
type entry struct {
	readyAt uint64 // cycle the instruction may leave the fetch queue
	doneAt  uint64 // cycle the result is available (neverDone until issued)
	mispred bool   // fetch mispredicted it: fetch waits for its resolution
}

// Core is the out-of-order engine.
type Core struct {
	cfg    Config
	stream Stream
	icache cache.Level //icrvet:persistent aliases the pool owner's il1, which the owner resets directly
	dcache DataCache   //icrvet:persistent aliases the pool owner's dl1, which the owner resets directly

	pred *branch.Combined
	btb  *branch.BTB
	ras  *branch.RAS

	now   uint64
	stats Stats

	// The instruction window. Every detailed draw gets the next seq,
	// counting from 0, and sits at insts[seq&mask] (its timing at
	// win[seq&mask]) until it commits. Four cursors split the drawn,
	// uncommitted seqs into the stages, oldest first:
	//
	//	[headSeq, dispSeq)   the RUU
	//	[dispSeq, fetchSeq)  the fetch queue
	//	[fetchSeq, drawnSeq) the fetch buffer: drawn, not yet fetched
	//
	// so headSeq <= dispSeq <= fetchSeq <= drawnSeq. Only refill writes
	// insts, through the stream's Fill; an instruction changes stage by a
	// cursor step. The stages hold at most RUUSize, FetchQueue and
	// fetchBatch instructions, and the ring is that sum rounded up to a
	// power of two, so a live seq never shares its slot.
	insts    []isa.Inst
	win      []entry
	mask     uint64
	headSeq  uint64
	dispSeq  uint64
	fetchSeq uint64
	drawnSeq uint64
	// The RUU's masks, bit seq&slotMask for each entry. waiting marks
	// the entries dispatched and not yet issued, known those of them
	// whose producers have all issued, and stores the uncommitted stores.
	// Issue walks waiting&known from the head's slot, so it attempts
	// exactly the entries a head-to-tail scan would, in seq order,
	// without walking the issued or the unknown.
	waiting, known, stores uint64
	// Wakeup, by slot. A dispatched entry's producers that had issued
	// fold their doneAt into its operandsAt; each one that had not sets
	// the entry's bit in its consumers mask and adds one to its pending
	// count. Issuing a producer folds its doneAt into each consumer and
	// counts it down, and a consumer whose count reaches 0 becomes
	// known: it may issue once now reaches its operandsAt.
	consumers  [maxRUU]uint64
	operandsAt [maxRUU]uint64
	pending    [maxRUU]uint8

	fetchStall   uint64 // fetch blocked until this cycle
	streamDone   bool   // the stream has ended (the fetch buffer is then empty)
	lastFetchBlk uint64 // last icache block fetched (to count per-block accesses)

	// warmBuf is RunWarming's batch of functional-warming instructions,
	// allocated on the first RunWarming so exact runs never carry it.
	warmBuf []isa.Inst //icrvet:persistent scratch: RunWarming writes every slot it reads

	lsqCount int

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

// New builds a core over the given instruction stream and memory
// hierarchy. Predictor state is created fresh per core.
func New(cfg Config, stream Stream, icache cache.Level, dcache DataCache) *Core {
	c := &Core{
		icache: icache,
		dcache: dcache,
		pred:   branch.NewCombined(branch.DefaultConfig()),
		btb:    branch.NewBTB(512, 4),
	}
	c.Reset(cfg, stream)
	return c
}

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// Run simulates until maxInstructions have committed or the stream ends,
// and returns the final statistics. The stream is first told how many
// draws the run is certain to make.
func (c *Core) Run(maxInstructions uint64) Stats {
	c.maxInstrs = maxInstructions
	if drawn := c.drawn(); drawn < maxInstructions {
		c.stream.Quota(maxInstructions - drawn)
	}
	for c.stats.Instructions < maxInstructions {
		if c.streamDone && c.headSeq == c.fetchSeq {
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
	if c.dispSeq != c.fetchSeq {
		next = after(t, next, c.win[c.dispSeq&c.mask].readyAt)
	}
	for _, x := range c.portFreeAt {
		next = after(t, next, x)
	}
	for _, x := range c.missBusyUntil {
		next = after(t, next, x)
	}
	// Only issued entries have a doneAt: a waiting one's is neverDone.
	for w := c.fromHead(c.ruu() &^ c.waiting); w != 0; w &= w - 1 {
		s := c.headSeq + uint64(bits.TrailingZeros64(w))
		next = after(t, next, c.win[s&c.mask].doneAt)
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
// returns how many it drew, 0 once the stream has ended. It fills in
// batches, but never ahead of a one-by-one pace: every drawn instruction
// is committed, in the fetch queue or RUU, or (not now) in the buffer,
// and those below the commit budget are certain to be fetched before Run
// returns, so refill fills up to the budget at once and past it draws
// one. The split of the stream between detailed and warming draws
// therefore does not depend on batching: when Run returns, at most the
// one instruction an iL1 miss left waiting is drawn and not fetched. A
// batch that would run past the ring's end is filled in two calls, which
// draw what one would.
func (c *Core) refill() int {
	at := c.drawnSeq & c.mask
	want := uint64(1)
	if drawn := c.drawn(); drawn < c.maxInstrs {
		want = min(c.maxInstrs-drawn, fetchBatch)
	}
	first := min(want, uint64(len(c.insts))-at)
	n := uint64(c.stream.Fill(c.insts[at : at+first]))
	if n == first && first < want {
		n += uint64(c.stream.Fill(c.insts[:want-first]))
	}
	c.drawnSeq += n
	return int(n)
}

// drawn returns how many instructions the core has drawn from its
// stream: every one is committed or still in the window.
func (c *Core) drawn() uint64 {
	return c.stats.Instructions + c.drawnSeq - c.headSeq
}

// fetch runs the fetch stage and reports whether it changed any state.
func (c *Core) fetch() bool {
	if c.now < c.fetchStall {
		c.stats.FetchStalls++
		return false
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchSeq-c.dispSeq >= uint64(c.cfg.FetchQueue) || c.streamDone {
			return n > 0
		}
		if c.fetchSeq == c.drawnSeq && c.refill() == 0 {
			c.streamDone = true
			return true // the stream just ended
		}
		i := c.fetchSeq & c.mask
		in := &c.insts[i]
		// Instruction-cache access once per new block.
		blk := in.PC / 32 // Table 1: 32-byte iL1 blocks
		if blk != c.lastFetchBlk {
			c.lastFetchBlk = blk
			lat := c.icache.Access(c.now, in.PC, cache.Fetch)
			if lat > 1 {
				// Miss: this instruction arrives when the fill
				// completes, and waits at the buffer's head until then.
				c.fetchStall = c.now + lat
				return true
			}
		}
		c.fetchSeq++
		e := &c.win[i]
		*e = entry{readyAt: c.now + 1, doneAt: neverDone}
		if in.Op.IsCtrl() {
			e.mispred = c.predict(in)
			if e.mispred {
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
// and, if fetch mispredicted it, releases the redirect: issue resolves
// each branch exactly once.
func (c *Core) resolveBranch(in *isa.Inst, e *entry) {
	switch in.Op {
	case isa.OpBranch:
		c.pred.Update(in.PC, in.Taken)
		if in.Taken {
			c.btb.Update(in.PC, in.Target)
		}
	case isa.OpJump, isa.OpCall:
		c.btb.Update(in.PC, in.Target)
	}
	if e.mispred {
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
		if c.dispSeq == c.fetchSeq || c.win[c.dispSeq&c.mask].readyAt > c.now {
			return n > 0
		}
		if c.dispSeq-c.headSeq >= uint64(c.cfg.RUUSize) {
			c.stats.RUUFull++
			return n > 0
		}
		if op := c.insts[c.dispSeq&c.mask].Op; op.IsMem() {
			if c.lsqCount >= c.cfg.LSQSize {
				c.stats.LSQFull++
				return n > 0
			}
			c.lsqCount++
			if op == isa.OpStore {
				c.stores |= 1 << (c.dispSeq & slotMask)
			}
		}
		c.wake(c.dispSeq)
		c.dispSeq++
	}
	return true
}

// wake enters the dispatching entry seq into the wakeup state: it
// counts the producers of its two sources that have not issued, folds
// in the doneAt of those that have, and marks it waiting, and known when
// nothing is pending. A source dist 0 names no producer, and one older
// than headSeq has committed (or predates the stream), so dist−1 <
// seq−headSeq holds for exactly the producers in the RUU. Two sources
// that name the same producer count it once.
func (c *Core) wake(seq uint64) {
	k := seq & slotMask
	in := &c.insts[seq&c.mask]
	inRUU := seq - c.headSeq
	d1, d2 := uint64(in.SrcDist1), uint64(in.SrcDist2)
	at1, wait1 := c.producer(seq-d1, d1-1 < inRUU)
	at2, wait2 := c.producer(seq-d2, d2-1 < inRUU)
	if d2 == d1 {
		wait2 = 0
	}
	c.consumers[(seq-d1)&slotMask] |= wait1 << k
	c.consumers[(seq-d2)&slotMask] |= wait2 << k
	pending := uint8(wait1 + wait2)
	c.operandsAt[k], c.pending[k] = max(at1, at2), pending
	c.waiting |= 1 << k
	if pending == 0 {
		c.known |= 1 << k
	}
}

// producer reports on the producer p of a dispatching entry, if inRUU:
// the cycle it is done if it has issued, or wait 1 if it has not. A
// producer outside the RUU is done for good (cycle 0).
func (c *Core) producer(p uint64, inRUU bool) (at, wait uint64) {
	at = c.win[p&c.mask].doneAt
	if !inRUU {
		at = 0
	}
	if at == neverDone {
		at, wait = 0, 1
	}
	return at, wait
}

// ruu returns the mask of the RUU's slots.
func (c *Core) ruu() uint64 {
	n := c.dispSeq - c.headSeq
	if n == maxRUU {
		return ^uint64(0)
	}
	return bits.RotateLeft64(1<<n-1, int(c.headSeq&slotMask))
}

// fromHead rotates a mask of RUU slots so that bit j stands for seq
// headSeq+j: walking its set bits from the lowest is walking the
// entries oldest first.
func (c *Core) fromHead(m uint64) uint64 {
	return bits.RotateLeft64(m, -int(c.headSeq&slotMask))
}

// ---------------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------------

// earlierStoreConflict reports whether an older, not-yet-committed store
// overlaps the load's word (conservative same-word disambiguation). Only
// the stores mask's bits older than the load are examined, and none at
// all when no store is in the window, the common case.
func (c *Core) earlierStoreConflict(load uint64) bool {
	older := c.fromHead(c.stores) & (1<<(load-c.headSeq) - 1)
	if older == 0 {
		return false
	}
	word := c.insts[load&c.mask].Addr &^ 7
	for ; older != 0; older &= older - 1 {
		s := c.headSeq + uint64(bits.TrailingZeros64(older))
		if c.insts[s&c.mask].Addr&^7 == word {
			return true
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

// issue starts ready instructions, oldest first, and reports whether it
// started any.
func (c *Core) issue() bool {
	issued := 0
	intALU, fpALU := c.cfg.IntALUs, c.cfg.FPALUs
	intMD, fpMD := c.cfg.IntMulDiv, c.cfg.FPMulDiv

	for w := c.fromHead(c.waiting & c.known); w != 0 && issued < c.cfg.IssueWidth; w &= w - 1 {
		seq := c.headSeq + uint64(bits.TrailingZeros64(w))
		k := seq & slotMask
		if c.operandsAt[k] > c.now {
			continue
		}
		in := &c.insts[seq&c.mask]
		var lat uint64
		switch op := in.Op; {
		case op == isa.OpLoad:
			if c.earlierStoreConflict(seq) {
				continue
			}
			port := c.freePort()
			if port < 0 {
				continue
			}
			if c.cfg.MSHRs > 0 && c.mshrsFull() {
				// A load that would miss cannot allocate a miss register.
				if hp, ok := c.dcache.(HitPredictor); ok && !hp.WouldHit(in.Addr) {
					c.stats.MSHRStalls++
					continue
				}
			}
			lat = c.dcache.Load(c.now, in.Addr)
			// The port is held for the L1-side check latency (capped at
			// 2: longer latencies are miss service, handled by MSHRs).
			occ := min(lat, 2)
			c.portFreeAt[port] = c.now + occ
			if c.cfg.MSHRs > 0 && lat > occ {
				c.missBusyUntil = append(c.missBusyUntil, c.now+lat)
			}
			c.stats.Loads++
		case op == isa.OpStore:
			// Stores "execute" (address/data ready) in one cycle; the
			// cache write happens at commit.
			lat = 1
		case op == isa.OpIntALU || op == isa.OpIntMul || op == isa.OpIntDiv:
			var isDiv bool
			lat, isDiv = c.opLatency(op)
			if op == isa.OpIntALU {
				if intALU == 0 {
					continue
				}
				intALU--
			} else {
				if intMD == 0 || (isDiv && c.intDivBusy > c.now) {
					continue
				}
				intMD--
				if isDiv {
					c.intDivBusy = c.now + lat
				}
			}
		case op == isa.OpFPALU || op == isa.OpFPMul || op == isa.OpFPDiv:
			var isDiv bool
			lat, isDiv = c.opLatency(op)
			if op == isa.OpFPALU {
				if fpALU == 0 {
					continue
				}
				fpALU--
			} else {
				if fpMD == 0 || (isDiv && c.fpDivBusy > c.now) {
					continue
				}
				fpMD--
				if isDiv {
					c.fpDivBusy = c.now + lat
				}
			}
		default: // control
			if intALU == 0 {
				continue
			}
			intALU--
			lat = 1
		}
		e := &c.win[seq&c.mask]
		e.doneAt = c.now + lat
		c.waiting &^= 1 << k
		c.known &^= 1 << k
		if woken := c.wakeConsumers(k, e.doneAt); lat == 0 {
			// A zero latency (a Config or data cache may give one)
			// makes the result ready in this cycle: the consumers it
			// made known join this walk, which reaches them in seq
			// order, as a head-to-tail scan would, since all are
			// younger.
			w |= c.fromHead(woken & c.known)
		}
		if in.Op.IsCtrl() {
			c.resolveBranch(in, e)
		}
		issued++
	}
	return issued > 0
}

// wakeConsumers folds the doneAt of the producer in slot k, which just
// issued, into each of its consumers, marks known those it was the last
// pending producer of, and returns the consumers.
func (c *Core) wakeConsumers(k, doneAt uint64) uint64 {
	woken := c.consumers[k]
	c.consumers[k] = 0
	for w := woken; w != 0; w &= w - 1 {
		j := bits.TrailingZeros64(w)
		c.operandsAt[j] = max(c.operandsAt[j], doneAt)
		if c.pending[j]--; c.pending[j] == 0 {
			c.known |= 1 << j
		}
	}
	return woken
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
		if c.headSeq == c.dispSeq || c.stats.Instructions >= c.maxInstrs {
			return n > 0
		}
		i := c.headSeq & c.mask
		if c.win[i].doneAt > c.now { // unissued entries are neverDone
			return n > 0
		}
		if in := &c.insts[i]; in.Op == isa.OpStore {
			lat := c.dcache.Store(c.now, in.Addr)
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
			c.stores &^= 1 << (c.headSeq & slotMask)
		} else if in.Op == isa.OpLoad {
			c.lsqCount--
		}
		c.headSeq++
		c.stats.Instructions++
		if c.now < c.commitStall {
			return true
		}
	}
	return true
}

// Reset restores the core to its post-construction state for a new run —
// new per-run configuration (hooks differ run to run), new stream — while
// reusing every internal array: the instruction window, port and MSHR
// reservations, and the branch predictor tables. Structure sizes are
// taken from cfg with New's defaults; an array whose size changed is
// reallocated, so Reset is correct (just not allocation-free) across
// machine geometries. Stale window slots are unreachable: the cursors
// restart at seq 0, and the stream and fetch write a slot before a
// cursor makes it live.
func (c *Core) Reset(cfg Config, stream Stream) {
	cfg = cfg.withDefaults()
	c.cfg = cfg
	c.stream = stream

	c.pred.Reset()
	c.btb.Reset()
	if c.ras == nil || c.ras.Cap() != cfg.RASDepth {
		c.ras = branch.NewRAS(cfg.RASDepth)
	} else {
		c.ras.Reset()
	}

	c.now = 0
	c.stats = Stats{}

	if n := 1 << bits.Len(uint(cfg.RUUSize+cfg.FetchQueue+fetchBatch-1)); len(c.insts) != n {
		c.insts = make([]isa.Inst, n)
		c.win = make([]entry, n)
	}
	c.mask = uint64(len(c.insts) - 1)
	c.headSeq, c.dispSeq, c.fetchSeq, c.drawnSeq = 0, 0, 0, 0
	c.waiting, c.known, c.stores = 0, 0, 0
	c.consumers = [maxRUU]uint64{}
	c.operandsAt = [maxRUU]uint64{}
	c.pending = [maxRUU]uint8{}

	c.fetchStall = 0
	c.streamDone = false
	c.lastFetchBlk = 0
	c.lsqCount = 0

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
