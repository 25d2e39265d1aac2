package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
)

// Detailed draws one core ahead. When cpu.Core.Run starts it announces how
// many detailed draws it is now certain to make (cpu.Stream's Quota). A
// quota large enough to be worth it, announced while the host has a core
// to spare, is drawn on a producer goroutine into a ring of batch buffers
// while the pipeline model consumes the batches already drawn. The
// generator's Fill draws exactly what the same number of one-instruction
// Fills would, however it is split, so the report does not change by a
// byte.

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
// its last slot; Fill receives that slot before it draws inline again,
// and FillWarm is only ever called with no quota left to serve.
type aheadStream struct {
	src  detailSource
	ring *ring // from the first pipelined quota until close

	left       uint64 // draws of the pipelined quota not yet served
	slot       int    // ring slot being served, -1 before a quota's first
	head, tail int    // its unserved instructions are ring.buf[slot][head:tail]
	producing  bool   // a producer was started and has not been joined
}

// Quota implements cpu.Stream: when the gate lets it, it starts a
// producer on the next n draws.
func (a *aheadStream) Quota(n uint64) {
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
	a.left, a.slot, a.head, a.tail = n, -1, 0, 0
	busy.Add(1)
	a.producing = true
	// One goroutine per quota, and an exact run announces one.
	go a.ring.produce(a.src, n)
}

// Fill implements cpu.Stream: the pipelined quota's draws come from
// the ring, in order, and every later draw from src.
func (a *aheadStream) Fill(buf []isa.Inst) int {
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
		n += a.src.Fill(buf[n:])
	}
	return n
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

// FillWarm implements cpu.Stream. Warming follows a Run that drew its
// whole quota, so it draws from src directly.
func (a *aheadStream) FillWarm(buf []isa.Inst) int {
	if a.left > 0 {
		panic("sim: a warming draw came before the detailed quota was drawn")
	}
	return a.src.FillWarm(buf)
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

// produce draws quota instructions from src into the ring, a slot at a
// time, and exits after the last slot, after a short one (src ended), or
// at the first slot boundary after close asks it to stop.
func (r *ring) produce(src detailSource, quota uint64) {
	defer r.exit()
	for quota > 0 {
		i := <-r.free
		if i < 0 || r.stop.Load() {
			return
		}
		want := int(min(quota, aheadBatch))
		got := src.Fill(r.buf[i][:want])
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
