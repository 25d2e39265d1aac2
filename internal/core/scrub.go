package core

import "repro/internal/ecc"

// Scrubbing (Saleh et al., cited as the paper's reference [21]): a
// background engine periodically sweeps the data array verifying check
// bits, repairing what it can before a demand load trips over the error.
// Scrubbing composes with every scheme: it uses the same recovery ladder
// as loads (replica -> ECC -> clean refill), and it is the natural
// companion to ICR because a replica that would repair a load can just as
// well repair proactively.

// ScrubStats counts scrubber activity.
type ScrubStats struct {
	Checks   uint64 // lines verified
	Errors   uint64 // lines found corrupted
	Repaired uint64 // lines restored (replica, ECC, duplicate, or refill)
	Lost     uint64 // dirty lines with no intact copy (data loss found early)
}

// ScrubStats returns a snapshot of the scrubber's counters.
func (c *Cache) ScrubStats() ScrubStats { return c.scrub }

// Scrub verifies the next n lines in round-robin order at cycle now,
// repairing corrupted lines where possible. Call it periodically (e.g.
// every k cycles from the cycle hook) to model a background scrubber.
func (c *Cache) Scrub(now uint64, n int) {
	for i := 0; i < n; i++ {
		ln := &c.arr.Lines[c.scrubPos]
		c.scrubPos = (c.scrubPos + 1) % len(c.arr.Lines)
		if !ln.Valid {
			continue
		}
		c.scrub.Checks++
		// One parity verification per word of the line.
		c.energy.ParityOps += uint64(c.cfg.BlockSize / 8)
		if ecc.CheckParityLineRange(ln.Data, ln.Parity, 0, c.cfg.BlockSize) == ecc.OK {
			continue
		}
		c.scrub.Errors++
		if c.repairLine(ln, now) {
			c.scrub.Repaired++
		} else {
			c.scrub.Lost++
		}
	}
}

// repairLine restores every corrupted word of a line using the scheme's
// recovery ladder. It returns false when dirty data was lost (the line is
// refilled from memory regardless, so simulation proceeds).
func (c *Cache) repairLine(ln *Line, now uint64) bool {
	var replicas []*Line
	var one [1]*Line
	if !ln.Replica {
		replicas = c.replicasOf(ln)
	} else if p := c.arr.Primary(ln.BlockAddr); p != nil {
		// A corrupted replica heals from its primary.
		one[0] = p
		replicas = one[:]
	}
	ok := true
	for off := 0; off < c.cfg.BlockSize; off += 8 {
		if ecc.CheckParityLineRange(ln.Data, ln.Parity, off, 8) == ecc.OK {
			continue
		}
		if !c.repairWord(ln, replicas, off, now) {
			ok = false
		}
	}
	if !ok {
		// Unrecoverable content: refill from architectural memory so the
		// array is consistent again (the dirty update is lost).
		copy(ln.Data, c.cfg.Mem.PeekBlock(ln.BlockAddr))
		ln.Dirty = false
		ln.Recode()
		c.revalVuln(ln, now)
	}
	return ok
}

// repairWord restores one corrupted word; returns false if the data was
// dirty and no intact copy existed.
func (c *Cache) repairWord(ln *Line, replicas []*Line, off int, now uint64) bool {
	for _, rep := range replicas {
		if ecc.CheckParityLineRange(rep.Data, rep.Parity, off, 8) == ecc.OK {
			c.repairFrom(ln, rep, off)
			return true
		}
	}

	if ln.ECC != nil {
		if r := ecc.CheckSECDEDLineWord(ln.Data, ln.ECC, off); r.DataIntact() {
			ln.RecodeWord(off)
			return true
		}
	}
	if c.cfg.Duplicates != nil {
		if dup, ok := c.cfg.Duplicates.Get(ln.BlockAddr); ok {
			copy(ln.Data[off:off+8], dup[off:off+8])
			ln.RecodeWord(off)
			return true
		}
	}
	if !ln.Dirty {
		// Clean data refills from below at leisure. Scrubbing never
		// touches LRU or decay state: it is invisible to replacement.
		copy(ln.Data, c.cfg.Mem.PeekBlock(ln.BlockAddr))
		ln.Recode()
		return true
	}
	return false
}
