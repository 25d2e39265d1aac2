package workload

import (
	"testing"

	"repro/internal/isa"
)

// BenchmarkWorkloadGeneration times the detailed stream; one op is one
// instruction.
func BenchmarkWorkloadGeneration(b *testing.B) {
	g := MustNew(Gcc(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}

// BenchmarkWorkloadGenerationWarm is BenchmarkWorkloadGeneration for the
// functional-warming stream, filled 256 instructions at a time as
// cpu.RunWarming does; one op is one instruction.
func BenchmarkWorkloadGenerationWarm(b *testing.B) {
	g := MustNew(Gcc(), 1)
	buf := make([]isa.Inst, 256)
	b.ResetTimer()
	for n := 0; n < b.N; n += len(buf) {
		g.FillWarm(buf[:min(len(buf), b.N-n)])
	}
}
