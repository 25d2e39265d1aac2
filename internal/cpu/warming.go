package cpu

import (
	"repro/internal/cache"
	"repro/internal/isa"
)

// WarmStream is an optional isa.Stream extension for sampled simulation: a
// stream that can produce instructions without drawing the parameters that
// only matter to out-of-order timing (dependence distances, load-use
// chains). The warmed stream must be statistically identical to the
// detailed one — same control flow, same address distributions — but need
// not be the same realization. workload.Generator implements it.
type WarmStream interface {
	NextWarm() (isa.Inst, bool)
}

// RunWarming functionally executes the stream until `target` cumulative
// committed instructions, updating every structure whose state carries
// across sampling windows — instruction and data caches (and through them
// replication state, decay counters, integrity codes, and the energy
// meter), branch predictors, BTB, and RAS — while skipping out-of-order
// issue and timing entirely.
//
// The pipeline is first drained in place (commit/issue/dispatch with fetch
// stopped, skipping idle cycles as Run does) so no instruction is
// half-simulated across the mode switch; drained instructions count toward
// the target. The clock then advances at the estimated CPI (cpiNum cycles
// per cpiDen instructions, a fixed-point pace; callers pass the cumulative
// cycles/instructions of the detailed windows measured so far, or 0/0 for
// the 1.0 default before the first measurement) so cycle-driven machinery
// — fault injection, scrubbing, decay, replica-cache timestamps — sees a
// clock consistent with the timing estimate. Both hooks installed by
// sim.SimulateContext handle jumped clocks.
func (c *Core) RunWarming(target, cpiNum, cpiDen uint64) Stats {
	c.maxInstrs = target
	for c.ruuCount > 0 || c.fqCount > 0 {
		if c.stats.Instructions >= target {
			return c.stats
		}
		if c.cfg.Halt != nil && c.cfg.Halt() {
			return c.stats
		}
		c.cycle(false)
	}

	if cpiDen == 0 || cpiNum == 0 {
		cpiNum, cpiDen = 1, 1
	}
	ws, _ := c.stream.(WarmStream)
	var acc uint64 // fixed-point cycle accumulator, in units of 1/cpiDen
	haltCheck := 0
	for c.stats.Instructions < target {
		if c.cfg.Halt != nil {
			if haltCheck++; haltCheck >= 256 {
				haltCheck = 0
				if c.cfg.Halt() {
					break
				}
			}
		}
		var in isa.Inst
		var ok bool
		switch {
		case c.havePending:
			in, ok = c.pendingInst, true
			c.havePending = false
		case c.streamDone:
		case ws != nil:
			in, ok = ws.NextWarm()
			c.streamDone = !ok
		default:
			in, ok = c.stream.Next()
			c.streamDone = !ok
		}
		if !ok {
			break
		}

		// Instruction-cache access once per new 32-byte block, as fetch()
		// does; the fill latency is timing and is ignored.
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
			// immediately — in-order retirement resolves every branch on
			// the spot.
			if c.predict(&in) {
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

		acc += cpiNum
		if acc >= cpiDen {
			d := acc / cpiDen
			acc -= d * cpiDen
			c.now += d
			if c.cfg.EachCycle != nil && c.now-1 >= c.hookNext {
				// Hooks are written for jumped clocks: the fault hook
				// catches up every injection due in the skipped range, the
				// scrub ticker fires once per jump.
				c.hookNext = c.cfg.EachCycle(c.now - 1)
			}
		}
	}
	c.stats.Cycles = c.now
	return c.stats
}
