package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// BenchmarkCPURun measures the out-of-order engine alone: a fixed-latency
// data cache isolates the per-cycle pipeline cost (fetch, dispatch and
// its dependence records, the issue walk over known entries, consumer
// wakeup, commit) from the memory hierarchy.
func BenchmarkCPURun(b *testing.B) {
	const instrs = 50_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gen := workload.MustNew(workload.Gcc(), 1)
		c := New(DefaultConfig(), &quotaTally{Generator: gen}, perfectICache{}, &fixedDCache{loadLat: 2, storeLat: 1})
		b.StartTimer()
		s := c.Run(instrs)
		if s.Instructions != instrs {
			b.Fatalf("committed %d, want %d", s.Instructions, instrs)
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkCPURunMemoryBound measures the engine where mcf spends its
// time: pointer-chasing loads that miss for 80 cycles, leaving the window
// idle between them. Core and stream are reset, not rebuilt, per
// iteration, so the run itself must report 0 allocs/op.
func BenchmarkCPURunMemoryBound(b *testing.B) {
	const instrs = 50_000
	stream := &fillStream{insts: memoryBoundStream(instrs)}
	c := New(DefaultConfig(), stream, perfectICache{}, &fixedDCache{loadLat: 80, storeLat: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset()
		c.Reset(DefaultConfig(), stream)
		if s := c.Run(instrs); s.Instructions != instrs {
			b.Fatalf("committed %d, want %d", s.Instructions, instrs)
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// memoryBoundStream is mcf-like pointer chasing: every fourth instruction
// is a load whose address depends on the previous load, and the ALU ops
// between them form a dependent chain.
func memoryBoundStream(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		pc := 0x400000 + uint64(4*(i%256))
		if i%4 == 0 {
			out[i] = isa.Inst{PC: pc, Op: isa.OpLoad, Addr: 0x1000000 + uint64(i)*64, Size: 8, SrcDist1: 4}
		} else {
			out[i] = isa.Inst{PC: pc, Op: isa.OpIntALU, SrcDist1: 1}
		}
	}
	return out
}
