package cpu

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// oneByOne is a generator that writes at most one instruction per Fill,
// so fetch draws it one instruction at a time, when it needs one. Warming
// still fills through FillWarm, and quotas are ignored. certain counts
// the detailed draws a Run to limit could not have done without: those
// of the instructions up to the limit-th of the stream, which the Run
// commits. At the ring's end refill may call Fill twice for one refill
// (a first slice of one slot, with the budget leaving room for more);
// both draws then lie below the budget, so both are certain draws, and
// the Run would have made them one by one before returning anyway.
type oneByOne struct {
	g       *workload.Generator
	limit   uint64
	certain uint64
}

func (s *oneByOne) Fill(buf []isa.Inst) int {
	if s.g.Count() < s.limit {
		s.certain++
	}
	return s.g.Fill(buf[:1])
}

func (s *oneByOne) FillWarm(buf []isa.Inst) int { return s.g.FillWarm(buf) }
func (s *oneByOne) Quota(uint64, bool)          {}

// quotaTally is the tests' Stream over a generator: the bare generator
// plus the sums of the detailed and warming quotas announced to it, the
// warming draws it served, and the widest batch fetch asked it for.
type quotaTally struct {
	*workload.Generator
	quotas     uint64 // detailed
	warmQuotas uint64
	warmDrawn  uint64
	widest     int
}

func (q *quotaTally) Quota(n uint64, warm bool) {
	if warm {
		q.warmQuotas += n
	} else {
		q.quotas += n
	}
}

func (q *quotaTally) Fill(buf []isa.Inst) int {
	q.widest = max(q.widest, len(buf))
	return q.Generator.Fill(buf)
}

func (q *quotaTally) FillWarm(buf []isa.Inst) int {
	n := q.Generator.FillWarm(buf)
	q.warmDrawn += uint64(n)
	return n
}

// TestFetchNeverDrawsAhead runs a sampled plan — functional warming, then
// back-to-back detailed warm-up and measured Runs, per unit — on a core
// over the bare generator, which fetch fills in batches, and on one over
// the same generator behind oneByOne. After every segment both must agree
// on Stats and on how many instructions the generator has drawn: batching
// below the commit budget must neither change a draw nor move the
// boundary between detailed and warming draws. When a Run returns, at
// most one drawn instruction may still wait unfetched, the one an iL1
// miss left at the buffer's head. The quotas Run announces to the batched
// core's stream are draws it is certain to make: after every segment
// their sum must equal, and so never exceed, the one-by-one core's
// detailed draws of instructions its Runs committed. Fetch also draws
// past the budget, so comparing with all detailed draws would let a quota
// overstate by up to a window's worth. Warming quotas are exact: after
// every segment their sum must equal the batched core's warming draws.
// A long exact Run after the plan announces one quota of many batches.
func TestFetchNeverDrawsAhead(t *testing.T) {
	const (
		units  = 64
		warm   = 3_100
		warmup = 400
		detail = 1_000
		exact  = 20_000
	)
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			gb, gn := workload.MustNew(p, 1), workload.MustNew(p, 1)
			tally, one := &quotaTally{Generator: gb}, &oneByOne{g: gn}
			batched := New(DefaultConfig(), tally, &skipICache{}, &skipDCache{})
			single := New(DefaultConfig(), one, &skipICache{}, &skipDCache{})
			var cum uint64
			check := func(seg string) {
				t.Helper()
				if a, b := batched.Stats(), single.Stats(); a != b {
					t.Fatalf("%s: batched stats %+v, one by one %+v", seg, a, b)
				}
				if a, b := gb.Count(), gn.Count(); a != b {
					t.Fatalf("%s: batched core drew %d instructions, one by one %d", seg, a, b)
				}
				// Every drawn instruction is committed or in the window,
				// [headSeq, drawnSeq): none is lost or repeated.
				if held := batched.drawnSeq - batched.headSeq + cum; gb.Count() != held {
					t.Fatalf("%s: generator drew %d instructions, core holds %d", seg, gb.Count(), held)
				}
				for _, c := range []*Core{batched, single} {
					if c.Stats().Instructions != cum {
						t.Fatalf("%s: committed %d, want %d", seg, c.Stats().Instructions, cum)
					}
				}
				if tally.quotas != one.certain {
					t.Fatalf("%s: Run announced %d certain draws, the one-by-one core made %d", seg, tally.quotas, one.certain)
				}
				if tally.warmQuotas != tally.warmDrawn {
					t.Fatalf("%s: RunWarming announced %d warming draws, it made %d", seg, tally.warmQuotas, tally.warmDrawn)
				}
			}
			for u := 0; u < units; u++ {
				cum += warm
				batched.RunWarming(cum, 0, 0)
				single.RunWarming(cum, 0, 0)
				check(fmt.Sprintf("unit %d warming", u))
				if batched.fetchSeq != batched.drawnSeq {
					t.Fatalf("unit %d: warming left a drawn instruction unfetched, so it would run out of order", u)
				}
				for _, n := range []uint64{warmup, detail} {
					cum += n
					one.limit = cum
					batched.Run(cum)
					single.Run(cum)
					seg := fmt.Sprintf("unit %d run to %d", u, cum)
					check(seg)
					if left := batched.drawnSeq - batched.fetchSeq; left > 1 {
						t.Fatalf("%s: %d drawn instructions left unfetched, want at most 1", seg, left)
					}
				}
			}
			cum += exact
			one.limit = cum
			batched.Run(cum)
			single.Run(cum)
			check("exact run")
			if tally.widest != fetchBatch || tally.quotas == 0 || tally.warmQuotas == 0 {
				t.Fatalf("the batched core filled at most %d at once and took detailed quotas of %d and warming quotas of %d in all, want batches of %d and both quotas", tally.widest, tally.quotas, tally.warmQuotas, fetchBatch)
			}
		})
	}
}
