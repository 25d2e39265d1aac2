package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
)

// Draws one core ahead. When cpu.Core.Run starts it announces how many
// detailed draws it is now certain to make, and when RunWarming has
// drained the pipeline, how many warming draws (cpu.Stream's Quota). A
// quota large enough to be worth it, announced while the host has a core
// to spare, is drawn on a producer goroutine into a ring of batch buffers
// while the core consumes the batches already drawn. The generator's Fill
// and FillWarm each draw exactly what the same number of one-instruction
// fills would, however they are split, so the report does not change by
// a byte.

const (
	// aheadBatch is how many instructions the producer draws per ring
	// slot, and aheadSlots how many slots a ring has: 160 KB of
	// instructions in all.
	aheadBatch = 1024
	aheadSlots = 4
)

// detailSource is what a run draws its instructions from: the run's
// *workload.Generator (or, in tests, a stream that ends). It is
// cpu.Stream without Quota, which aheadStream adds; its Fill writes fewer
// than asked only when it has ended.
type detailSource interface {
	Fill(buf []isa.Inst) int
	FillWarm(buf []isa.Inst) int
}

// busy counts, process-wide, the simulations in progress and the
// producers running. A quota is pipelined only while it is below
// GOMAXPROCS, so saturated sweeps stay inline and a producer never takes
// a core another simulation would use.
var busy atomic.Int32

// forceAhead overrides the gate in tests: 1 pipelines every quota, -1
// none, 0 applies the gate.
var forceAhead atomic.Int32

// haltSet, when non-nil (in tests), is called once a cancelled run's
// halt flag is set, so a test can hold its cancelling draw until the core
// is certain to stop at its next poll. Set it only while no simulation
// runs.
var haltSet func()

// pipelined reports whether a quota of n draws goes to a producer: at
// least two batches, and a core to spare. The count is read once, when
// the quota starts.
func pipelined(n uint64) bool {
	switch forceAhead.Load() {
	case 1:
		return true
	case -1:
		return false
	}
	return n >= 2*aheadBatch && int(busy.Load()) < runtime.GOMAXPROCS(0)
}

// aheadStream is a run's instruction stream: src, with each pipelined
// quota served from a ring a producer fills. Exactly one goroutine draws
// from src at a time. A producer owns it from its start until it sends
// its last slot, and the run receives that slot before it draws inline
// again.
type aheadStream struct {
	src  detailSource
	ring *ring // from the first pipelined quota until close

	left       uint64 // draws of the pipelined quota not yet served
	warm       bool   // the pipelined quota is of warming draws
	slot       int    // ring slot being served, -1 before a quota's first
	head, tail int    // its unserved instructions are ring.buf[slot][head:tail]
	producing  bool   // a producer was started and has not been joined
}

// Quota implements cpu.Stream: when the gate lets it, it starts a
// producer on the next n draws, of the kind warm says.
func (a *aheadStream) Quota(n uint64, warm bool) {
	if a.left > 0 {
		panic("sim: a quota was announced before the last one was drawn")
	}
	if !pipelined(n) {
		return
	}
	a.join()
	if a.ring == nil {
		a.ring = getRing()
	}
	a.ring.reset()
	a.left, a.warm, a.slot, a.head, a.tail = n, warm, -1, 0, 0
	busy.Add(1)
	a.producing = true
	// One goroutine per quota: an exact run announces one, a sampled run
	// one per segment.
	go a.ring.produce(a.src, n, warm)
}

// Fill implements cpu.Stream.
func (a *aheadStream) Fill(buf []isa.Inst) int { return a.fill(buf, false) }

// FillWarm implements cpu.Stream.
func (a *aheadStream) FillWarm(buf []isa.Inst) int { return a.fill(buf, true) }

// fill serves a draw of the given kind: the pipelined quota's draws come
// from the ring, in order, and every later draw from src. The core draws
// each quota whole before it draws the other kind.
func (a *aheadStream) fill(buf []isa.Inst, warm bool) int {
	if a.left > 0 && a.warm != warm {
		panic("sim: a draw of the other kind came while a quota was unserved")
	}
	n := 0
	for a.left > 0 && n < len(buf) {
		if a.head == a.tail {
			a.nextSlot()
			continue
		}
		k := copy(buf[n:], a.ring.buf[a.slot][a.head:a.tail])
		a.head += k
		a.left -= uint64(k)
		n += k
	}
	if n < len(buf) {
		n += fillFrom(a.src, buf[n:], warm)
	}
	return n
}

// fillFrom draws from src through Fill or FillWarm, as warm says.
func fillFrom(src detailSource, buf []isa.Inst, warm bool) int {
	if warm {
		return src.FillWarm(buf)
	}
	return src.Fill(buf)
}

// nextSlot hands the slot just served back to the producer and waits for
// the next filled one. A short slot means src ended inside the quota:
// its instructions are then the last the ring serves.
func (a *aheadStream) nextSlot() {
	r := a.ring
	if a.slot >= 0 {
		r.free <- a.slot
	}
	a.slot = <-r.full
	a.head, a.tail = 0, r.n[a.slot]
	if uint64(a.tail) < min(a.left, aheadBatch) {
		a.left = uint64(a.tail)
	}
}

// join waits for the last producer started to exit.
func (a *aheadStream) join() {
	if a.producing {
		<-a.ring.done
		a.producing = false
	}
}

// close stops a running producer at its next slot boundary, waits for it
// to exit, and returns the ring to the free list. The run draws nothing
// more afterwards.
func (a *aheadStream) close() {
	r := a.ring
	if r == nil {
		return
	}
	if a.producing {
		r.stop.Store(true)
		r.free <- -1 // wakes a producer waiting for a slot
		a.join()
	}
	a.ring, a.left = nil, 0
	putRing(r)
}

// ring is one producer's batch buffers and the channels that pass slots
// between it and the run.
type ring struct {
	buf [aheadSlots][aheadBatch]isa.Inst
	n   [aheadSlots]int // instructions the producer wrote into each slot

	// free holds the slots the producer may fill, and -1 when close asks
	// it to stop; full holds the filled slots in stream order. Each slot
	// is in at most one place at a time, so with room for every slot (and
	// the -1) no send blocks.
	free chan int
	full chan int
	done chan struct{} // the producer has exited
	stop atomic.Bool
}

// reset readies the ring for a new producer: every slot free, nothing
// filled. No producer may be running.
func (r *ring) reset() {
	r.stop.Store(false)
	for len(r.free) > 0 {
		<-r.free
	}
	for len(r.full) > 0 {
		<-r.full
	}
	for i := range aheadSlots {
		r.free <- i
	}
}

// produce draws quota instructions of the given kind from src into the
// ring, a slot at a time, and exits after the last slot, after a short
// one (src ended), or at the first slot boundary after close asks it to
// stop.
func (r *ring) produce(src detailSource, quota uint64, warm bool) {
	defer r.exit()
	for quota > 0 {
		i := <-r.free
		if i < 0 || r.stop.Load() {
			return
		}
		want := int(min(quota, aheadBatch))
		got := fillFrom(src, r.buf[i][:want], warm)
		r.n[i] = got
		r.full <- i
		if got < want {
			return
		}
		quota -= uint64(want)
	}
}

// exit releases the producer's claim on a core and signals join.
func (r *ring) exit() {
	busy.Add(-1)
	r.done <- struct{}{}
}

// rings is the process-wide free list of rings, so a serial workload
// holds one ring however many runs it makes.
var rings struct {
	mu   sync.Mutex
	idle []*ring
}

// getRing takes a ring from the free list, or builds one.
func getRing() *ring {
	rings.mu.Lock()
	defer rings.mu.Unlock()
	if n := len(rings.idle); n > 0 {
		r := rings.idle[n-1]
		rings.idle = rings.idle[:n-1]
		return r
	}
	//icrvet:ignore allocfree built once, then reused from the free list
	return &ring{free: make(chan int, aheadSlots+1), full: make(chan int, aheadSlots), done: make(chan struct{}, 1)}
}

// putRing parks an idle ring, keeping at most GOMAXPROCS of them.
func putRing(r *ring) {
	rings.mu.Lock()
	defer rings.mu.Unlock()
	if len(rings.idle) < runtime.GOMAXPROCS(0) {
		rings.idle = append(rings.idle, r)
	}
}
