package cpu

import (
	"testing"

	"repro/internal/workload"
)

// The pipeline allocates everything it needs at New: the instruction
// window (one ring for the fetch buffer, fetch queue and RUU), the port
// reservations and the MSHR slice are all fixed-capacity. A
// steady-state run therefore performs zero allocations per cycle — pinned
// here so an accidental append-growth or escaping temporary fails fast.
func TestRunSteadyStateAllocFree(t *testing.T) {
	gen := workload.MustNew(workload.Gcc(), 1)
	c := New(DefaultConfig(), &quotaTally{Generator: gen}, perfectICache{}, &fixedDCache{loadLat: 2, storeLat: 1})

	// Warm up: fill the window, grow any lazily-sized internals.
	c.Run(20_000)

	target := c.Stats().Instructions
	got := testing.AllocsPerRun(20, func() {
		target += 1_000
		if s := c.Run(target); s.Instructions != target {
			t.Fatalf("committed %d, want %d", s.Instructions, target)
		}
	})
	// One run spans ~1000 instructions; even a single per-cycle allocation
	// would show up as hundreds per run. The workload generator may
	// allocate a handful of objects internally (rand internals), so allow
	// a small constant, not a per-cycle budget.
	if got > 3 {
		t.Errorf("steady-state run of 1000 instructions allocates %.0f objects, want <= 3", got)
	}
}

// A memory-bound run, reset in place between repetitions, allocates
// nothing at all: no generator is involved, and the idle-cycle skip works
// on the core's fixed arrays.
func TestRunMemoryBoundAllocFree(t *testing.T) {
	const instrs = 20_000
	stream := &fillStream{insts: memoryBoundStream(instrs)}
	c := New(DefaultConfig(), stream, perfectICache{}, &fixedDCache{loadLat: 80, storeLat: 1})
	got := testing.AllocsPerRun(5, func() {
		stream.Reset()
		c.Reset(DefaultConfig(), stream)
		if s := c.Run(instrs); s.Instructions != instrs {
			t.Fatalf("committed %d, want %d", s.Instructions, instrs)
		}
	})
	if got != 0 {
		t.Errorf("memory-bound run allocates %.0f objects, want 0", got)
	}
}
