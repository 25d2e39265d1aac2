package cpu

import (
	"repro/internal/cache"
	"repro/internal/isa"
)

// warmBatch is how many instructions RunWarming asks the stream for at
// once, and how often it polls Config.Halt.
const warmBatch = 256

// RunWarming functionally executes the stream until `target` cumulative
// committed instructions, updating every structure whose state carries
// across sampling windows — instruction and data caches (and through them
// replication state, decay counters, integrity codes, and energy
// counts), branch predictors, BTB, and RAS — while skipping out-of-order
// issue and timing entirely.
//
// The pipeline is first drained in place (commit/issue/dispatch with fetch
// stopped, skipping idle cycles as Run does) so no instruction is
// half-simulated across the mode switch; drained instructions count toward
// the target. The stream is then told how many warming draws reach the
// target (Stream's Quota). The clock then advances at the estimated CPI
// (cpiNum cycles per cpiDen instructions, a fixed-point pace; callers
// pass the cumulative cycles/instructions of the detailed windows
// measured so far, or 0/0 for the 1.0 default before the first
// measurement) so cycle-driven machinery — fault injection, scrubbing,
// decay, replica-cache timestamps — sees a clock consistent with the
// timing estimate. Both hooks installed by sim.SimulateContext handle
// jumped clocks.
func (c *Core) RunWarming(target, cpiNum, cpiDen uint64) Stats {
	c.maxInstrs = target
	for c.headSeq != c.fetchSeq {
		if c.stats.Instructions >= target {
			return c.stats
		}
		if c.cfg.Halt != nil && c.cfg.Halt() {
			return c.stats
		}
		c.cycle(false)
	}

	if drawn := c.drawn(); drawn < target && !c.streamDone {
		c.stream.Quota(target-drawn, true)
	}

	if cpiDen == 0 || cpiNum == 0 {
		cpiNum, cpiDen = 1, 1
	}
	if c.warmBuf == nil {
		//icrvet:ignore allocfree one-time lazy scratch allocation, reused by every later warming segment
		c.warmBuf = make([]isa.Inst, warmBatch)
	}
	// Each instruction advances the clock by cpiNum/cpiDen cycles: step
	// whole cycles, plus frac/cpiDen carried in the accumulator.
	step, frac := cpiNum/cpiDen, cpiNum%cpiDen
	var acc uint64 // fixed-point cycle accumulator, in units of 1/cpiDen
	for c.stats.Instructions < target {
		// Ask for no more than the target needs, so the stream never runs
		// ahead of the committed count and the detailed window that
		// follows starts exactly where warming stopped.
		want := min(target-c.stats.Instructions, warmBatch)
		n := c.fillWarm(c.warmBuf[:want])
		for i := range c.warmBuf[:n] {
			in := &c.warmBuf[i]

			// Instruction-cache access once per new 32-byte block, as
			// fetch() does; the fill latency is timing and is ignored.
			blk := in.PC / 32
			if blk != c.lastFetchBlk {
				c.lastFetchBlk = blk
				c.icache.Access(c.now, in.PC, cache.Fetch)
			}

			switch {
			case in.Op == isa.OpLoad:
				c.dcache.Load(c.now, in.Addr)
				c.stats.Loads++
			case in.Op == isa.OpStore:
				c.dcache.Store(c.now, in.Addr)
				c.stats.Stores++
			case in.Op.IsCtrl():
				// Run the front-end predictors (counting branches and
				// mispredicts exactly as fetch() would) and train them
				// immediately — in-order retirement resolves every branch
				// on the spot.
				if c.predict(in) {
					c.stats.Mispredicts++
				}
				switch in.Op {
				case isa.OpBranch:
					c.pred.Update(in.PC, in.Taken)
					if in.Taken {
						c.btb.Update(in.PC, in.Target)
					}
				case isa.OpJump, isa.OpCall:
					c.btb.Update(in.PC, in.Target)
				}
			}
			c.stats.Instructions++

			d := step
			if acc += frac; acc >= cpiDen {
				acc -= cpiDen
				d++
			}
			if d > 0 {
				c.now += d
				if c.cfg.EachCycle != nil && c.now-1 >= c.hookNext {
					// Hooks are written for jumped clocks: the fault hook
					// catches up every injection due in the skipped range,
					// the scrub ticker fires once per jump.
					c.hookNext = c.cfg.EachCycle(c.now - 1)
				}
			}
		}
		if uint64(n) < want {
			break // the stream ended
		}
		if c.cfg.Halt != nil && c.cfg.Halt() {
			break
		}
	}
	c.stats.Cycles = c.now
	return c.stats
}

// fillWarm fills buf, which is never empty, with the next instructions
// to warm: first those fetch drew and did not take (after a full Run, at
// most the one an iL1 miss left waiting; see refill), then the stream's
// own. The pipeline is drained, so the RUU and fetch queue cursors
// follow fetchSeq past each instruction taken from the window. It returns
// how many it wrote; fewer than len(buf) means the stream has ended.
func (c *Core) fillWarm(buf []isa.Inst) int {
	n := 0
	for ; n < len(buf) && c.fetchSeq != c.drawnSeq; n++ {
		buf[n] = c.insts[c.fetchSeq&c.mask]
		c.fetchSeq++
	}
	c.headSeq, c.dispSeq = c.fetchSeq, c.fetchSeq
	if !c.streamDone && n < len(buf) {
		n += c.stream.FillWarm(buf[n:])
		c.streamDone = n < len(buf)
	}
	return n
}
