package core

import (
	"repro/internal/cache"
	"repro/internal/ecc"
)

// verifyLoad runs the scheme's integrity check over the accessed word of a
// hitting load and performs recovery when an error is found. It returns
// the extra latency incurred beyond the error-free hit latency.
//
// Recovery ladder (§3.2):
//
//   - replicated line, parity fails  -> check the replica's parity; if it
//     is intact, repair from the replica (+1 cycle). If the replica is
//     also corrupted, fall through to the unreplicated handling.
//   - unreplicated, ECC protection   -> SEC-DED corrects single-bit
//     errors in place; double-bit errors detect and fall back to L2 for
//     clean lines, and are unrecoverable for dirty lines.
//   - unreplicated, parity only      -> clean lines are refetched from
//     L2/memory; dirty lines are unrecoverable (the data is lost).
//
// After an unrecoverable error the line is re-filled from architectural
// memory so the simulation can proceed deterministically; the lost dirty
// data is exactly what the counter records.
func (c *Cache) verifyLoad(now uint64, ln *Line, replicas []*Line, dup []byte, addr uint64) (extra uint64) {
	off := int(addr) & (c.cfg.BlockSize - 1)
	word := off &^ 7

	if c.cfg.Scheme.Protection == ECCProt && len(replicas) == 0 {
		c.energy.ECCOps++
		return c.verifyECC(now, ln, off)
	}
	c.energy.ParityOps++
	if c.cur.Lookup == LookupParallel && len(replicas) > 0 {
		// Parallel compare verifies the replica copy too.
		c.energy.ParityOps++
	}

	// Parity path (Base-P, and every replicated line in ICR schemes).
	if ecc.CheckParityLineRange(ln.Data, ln.Parity, word, 8) == ecc.OK {
		// With a parallel lookup an error confined to the *replica* is
		// also caught (and discarded) now; serial lookups never see it.
		if c.cur.Lookup == LookupParallel {
			for _, rep := range replicas {
				if ecc.CheckParityLineRange(rep.Data, rep.Parity, word, 8) != ecc.OK {
					c.stats.ErrorsDetected++
					c.repairFrom(rep, ln, word)
					c.stats.RecoveredByReplica++
				}
			}
		}
		return 0
	}

	// Primary word is corrupted.
	c.stats.ErrorsDetected++
	for _, rep := range replicas {
		if c.cur.Lookup == LookupSerial {
			c.energy.L1Reads++ // serial schemes read the replica only now
			c.energy.ParityOps++
		}
		if ecc.CheckParityLineRange(rep.Data, rep.Parity, word, 8) == ecc.OK {
			c.repairFrom(ln, rep, word)
			c.stats.RecoveredByReplica++
			return 1 // one extra cycle to read the replica (§3.2)
		}
		// This replica is corrupted too (much rarer); try the next, if any.
	}

	// A duplicate in the separate r-cache (Kim & Somani baseline) repairs
	// the word before falling back to L2 or declaring loss.
	if dup != nil {
		off2 := off &^ 7
		copy(ln.Data[off2:off2+8], dup[off2:off2+8])
		ln.RecodeWord(off2)
		c.stats.RecoveredByDuplicate++
		c.energy.L1Writes++
		return 1
	}

	// Two-tier ICR: a copy parked in the far tier repairs the word at
	// that tier's access cost — reaching the far array is a remote
	// access, not an L1 probe — before falling back to ECC or refetch.
	if c.cfg.CrossTier != nil {
		c.cross.Repairs++
		if lat, ok := c.cfg.CrossTier.RepairWord(now, ln.BlockAddr, word, c.crossBuf[:]); ok {
			copy(ln.Data[word:word+8], c.crossBuf[:])
			ln.RecodeWord(word)
			c.cross.Repaired++
			return lat
		}
	}

	// No intact replica: default to the unreplicated actions (§3.2).
	if c.cfg.Scheme.Protection == ECCProt {
		// Replicated line in an ICR-ECC scheme whose replicas all failed:
		// the ECC bits are still maintained, so try correction.
		c.energy.ECCOps++
		return 1 + c.verifyECC(now, ln, off)
	}
	return 1 + c.recoverFromBelow(now, ln, addr)
}

// verifyECC checks and, where possible, corrects the accessed word using
// the line's SEC-DED bits.
func (c *Cache) verifyECC(now uint64, ln *Line, off int) (extra uint64) {
	switch ecc.CheckSECDEDLineWord(ln.Data, ln.ECC, off) {
	case ecc.OK:
		return 0
	case ecc.CorrectedSingle:
		c.stats.ErrorsDetected++
		c.stats.RecoveredByECC++
		// Correction restored the original word, so the parity bits
		// (computed over the original data) are consistent again.
		return 0
	case ecc.DetectedCheckBit:
		c.stats.ErrorsDetected++
		c.stats.RecoveredByECC++
		ln.RecodeWord(off)
		return 0
	default: // DetectedDouble
		c.stats.ErrorsDetected++
		return c.recoverFromBelow(now, ln, c.arr.Addr(ln.BlockAddr)|uint64(off))
	}
}

// recoverFromBelow handles a detected-but-uncorrectable error: clean lines
// are refetched from the next level (recoverable, at miss cost); dirty
// lines have lost data (unrecoverable). Either way the line is restored
// from architectural memory so execution can continue.
func (c *Cache) recoverFromBelow(now uint64, ln *Line, addr uint64) (extra uint64) {
	if ln.Dirty {
		c.stats.UnrecoverableLoads++
	} else {
		c.stats.RecoveredByL2++
	}
	extra = c.cfg.Next.Access(now, addr, cache.Read)
	copy(ln.Data, c.cfg.Mem.PeekBlock(ln.BlockAddr))
	ln.Dirty = false
	c.setVuln(ln, now, false)
	ln.Recode()
	c.energy.L1Writes++
	return extra
}

// repairFrom copies the aligned word at byte offset `word` from src into
// dst, refreshing dst's check bits for that word.
func (c *Cache) repairFrom(dst, src *Line, word int) {
	copy(dst.Data[word:word+8], src.Data[word:word+8])
	dst.Parity[word/8] = src.Parity[word/8]
	if dst.ECC != nil {
		dst.ECC[word/8] = ecc.EncodeSECDED(ecc.Word64(dst.Data, word))
	}
	c.energy.L1WordWrites++
}
