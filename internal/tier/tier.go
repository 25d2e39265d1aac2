// Package tier implements the protected second tier of two-tier ICR: a
// set-associative array standing where the plain timing L2 stands, but
// carrying real data bytes and real parity/SEC-DED check bits. The array
// is a core.LineArray, the line format and mechanics (decay, LRU, victim
// policies, guest hosting, fault injection) the ICR L1 is built on; this
// package holds the tier's own policy, including an extra-latency knob
// that turns it into a remote/CXL tier. It implements cache.Level, so the
// simulator wires it in place of the plain L2 without touching the L1,
// and core.ReplicaSink, so the ICR L1 and the tier can park replicas in
// each other's dead space (cross-tier placement).
//
// Content model: block bytes are held architecturally by cache.Memory,
// and every Write reaching this tier happens after Memory was updated
// (the L1 write-back and write-through paths both update Memory first).
// The tier therefore refreshes line content from Memory on write hits and
// fills, and its write-backs to memory are timing-only — corrupted tier
// data is never written into the architectural store, it is *counted*
// (SilentWritebacks) as the propagation a real system would have
// suffered.
package tier

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/energy"
	"repro/internal/fault"
)

// Config describes the protected tier.
type Config struct {
	// Geometry (the machine's L2 by default).
	Size, Assoc, BlockSize int

	// HitLatency is the base access latency; ExtraLatency is added to
	// every access (0 for an on-chip L2, larger to model a remote/CXL
	// tier). Cross-tier repairs from this tier also pay both.
	HitLatency   uint64
	ExtraLatency uint64

	// PortOccupancy models a single bank/port exactly like cache.Config.
	PortOccupancy uint64

	// Protect selects the baseline protection of tier lines.
	Protect core.Protection

	// Replicate enables in-tier ICR: fills replicate into dead/invalid
	// ways at distance sets/2.
	Replicate bool

	// Victim is the replica-placement policy (defaults to DeadOnly).
	Victim core.VictimPolicy

	// DecayWindow is the dead-block decay window in cycles (0 = dead as
	// soon as the access completes).
	DecayWindow uint64

	// Next is the level below (memory).
	Next cache.Level

	// Mem holds architectural block content.
	Mem *cache.Memory
}

// Stats counts the tier's reliability and replication events. The demand
// access counters live in the cache.Stats returned by CacheStats, so the
// simulator's L2 accounting is unchanged.
type Stats struct {
	ReplAttempts     uint64
	ReplSuccesses    uint64
	ReplicaEvictions uint64
	DeadEvictions    uint64

	ErrorsDetected     uint64
	RecoveredByReplica uint64
	RecoveredByECC     uint64
	RecoveredByCross   uint64 // repaired from a copy parked in the L1
	RecoveredByMem     uint64 // clean line refetched from memory
	UnrecoverableDirty uint64 // detected, uncorrectable, and dirty
	SilentWritebacks   uint64

	InjectedFlips       uint64
	InjectedIntoInvalid uint64

	// Cross is the tier's view of cross-tier traffic (client side:
	// offers to and repairs from the L1; host side: guests parked here).
	Cross core.CrossStats
}

// Protected is the protected tier: a core.LineArray — the line format and
// mechanics it shares with the ICR L1 — driven by the tier's own policy:
// cache.Level access with port contention, content refreshed from memory,
// timing-only write-backs, one in-tier replica at distance sets/2, and a
// recovery ladder that ends in a memory refetch.
//
//icrvet:pooled
type Protected struct {
	cfg      Config           //icrvet:persistent construction input: the pool shape fingerprints the tier config wholesale
	replDist int              //icrvet:persistent replica placement distance (sets/2), derived at construction
	cross    core.ReplicaSink //icrvet:persistent hierarchy wiring: set once by SetCross, stable across pooled reuse

	lines    *core.LineArray
	portBusy uint64
	stats    cache.Stats
	tstats   Stats
	energy   energy.Counts
	crossBuf [8]byte
}

var (
	_ cache.Level      = (*Protected)(nil)
	_ core.ReplicaSink = (*Protected)(nil)
)

// New builds a protected tier. It panics on invalid geometry (programming
// error, as in cache.New).
func New(cfg Config) *Protected {
	if cfg.Next == nil || cfg.Mem == nil {
		panic("tier: Next level and Mem are required")
	}
	if cfg.Protect == 0 {
		panic("tier: a protection (parity or ECC) is required")
	}
	if cfg.HitLatency == 0 {
		cfg.HitLatency = 1
	}
	if cfg.Replicate && cfg.Victim == 0 {
		cfg.Victim = core.DeadOnly
	}
	lines := core.NewLineArray(cfg.Size, cfg.Assoc, cfg.BlockSize, cfg.Protect, cfg.DecayWindow)
	return &Protected{cfg: cfg, replDist: lines.Sets() / 2, lines: lines}
}

// SetCross attaches the far tier that may host this tier's replicas (the
// ICR L1). Wiring is circular — the L1's config points back here — so it
// cannot be a construction parameter.
func (t *Protected) SetCross(sink core.ReplicaSink) { t.cross = sink }

// CacheStats returns the tier's demand-access counters in the same shape
// the plain timing L2 reports, so L2 accounting and energy pricing are
// unchanged.
func (t *Protected) CacheStats() cache.Stats { return t.stats }

// TierStats returns the tier's reliability and replication counters.
func (t *Protected) TierStats() Stats {
	s := t.tstats
	s.InjectedFlips, s.InjectedIntoInvalid = t.lines.Injected()
	return s
}

// EnergyCounts returns the tier's extra array traffic (replica installs,
// repair reads) and check computations. Demand accesses are counted in
// CacheStats, exactly like the plain L2.
func (t *Protected) EnergyCounts() energy.Counts { return t.energy }

// Access implements cache.Level.
func (t *Protected) Access(now uint64, addr uint64, kind cache.Kind) uint64 {
	ba := t.lines.BlockAddr(addr)
	switch kind {
	case cache.Read:
		t.stats.Reads++
	case cache.Write:
		t.stats.Writes++
	case cache.Fetch:
		t.stats.Fetches++
	}

	// Port contention, exactly as in cache.Cache.
	var portDelay uint64
	if t.cfg.PortOccupancy > 0 {
		if t.portBusy > now {
			portDelay = t.portBusy - now
			t.stats.PortStallCycles += portDelay
		}
		t.portBusy = now + portDelay + t.cfg.PortOccupancy
		now += portDelay
	}

	if ln := t.lines.Primary(ba); ln != nil {
		t.lines.NoteAccess(ln, addr)
		var extra uint64
		if kind == cache.Write {
			t.refreshFromMem(ln, now)
		} else {
			extra = t.verifyRead(now, ln, int(addr)&(t.cfg.BlockSize-1))
		}
		t.lines.Touch(ln, now)
		return portDelay + t.cfg.HitLatency + t.cfg.ExtraLatency + extra
	}

	// Miss: count, fetch from memory, allocate (write-allocate, mirroring
	// the plain L2's timing shape). Dirty victims follow the
	// buffered-writeback contract documented on cache.Cache (evictLine).
	switch kind {
	case cache.Read:
		t.stats.ReadMisses++
	case cache.Write:
		t.stats.WriteMisses++
	case cache.Fetch:
		t.stats.FetchMisses++
	}
	lat := t.cfg.HitLatency + t.cfg.ExtraLatency +
		t.cfg.Next.Access(now+t.cfg.HitLatency, addr, cache.Read)
	v := t.lines.LRUWay(t.lines.HomeSet(ba))
	if v.Valid {
		t.evictLine(v, now)
	}
	t.lines.Fill(v, ba, t.cfg.Mem.PeekBlock(ba))
	t.lines.Touch(v, now)
	if kind == cache.Write {
		v.Dirty = true
	}
	t.lines.NoteAccess(v, addr)
	if t.cfg.Replicate {
		t.tstats.ReplAttempts++
		if t.replicate(v, now) {
			t.tstats.ReplSuccesses++
		}
	}
	return portDelay + lat
}

// refreshFromMem re-mirrors a line (and its in-tier replica) from the
// architectural store after a write reached this tier: Memory was updated
// before the write was forwarded down (the L1 write-back and
// write-through paths both do so), so the architectural content is
// current by construction.
func (t *Protected) refreshFromMem(ln *core.Line, now uint64) {
	copy(ln.Data, t.cfg.Mem.PeekBlock(ln.BlockAddr))
	ln.Recode()
	ln.Dirty = true
	t.energy.ParityOps++
	if ln.ECC != nil {
		t.energy.ECCOps++
	}
	// The in-tier replica is updated in place; a copy parked in the L1 is
	// stale and must be dropped.
	if rep := t.findReplica(ln.BlockAddr); rep != nil {
		t.lines.InstallReplica(rep, ln)
		t.lines.Touch(rep, now)
		t.energy.L2Writes++
	}
	if ln.Spilled {
		ln.Spilled = false
		if t.cross != nil {
			t.cross.DropReplica(ln.BlockAddr)
			t.tstats.Cross.Drops++
		}
	}
}

// verifyRead checks the accessed word of a read hit and recovers from
// detected errors. The ladder mirrors the L1 (§3.2), with memory standing
// in for "the level below": replica → cross-tier copy → ECC → refetch;
// dirty uncorrectable lines are lost data.
func (t *Protected) verifyRead(now uint64, ln *core.Line, off int) (extra uint64) {
	word := off &^ 7

	rep := t.findReplica(ln.BlockAddr)
	if t.cfg.Protect == core.ECCProt && rep == nil {
		t.energy.ECCOps++
		return core.ECCCheckLatency + t.verifyECC(now, ln, word)
	}
	t.energy.ParityOps++

	if ecc.CheckParityLineRange(ln.Data, ln.Parity, word, 8) == ecc.OK {
		return 0
	}
	t.tstats.ErrorsDetected++

	if rep != nil {
		t.energy.L2Reads++
		t.energy.ParityOps++
		if ecc.CheckParityLineRange(rep.Data, rep.Parity, word, 8) == ecc.OK {
			copy(ln.Data[word:word+8], rep.Data[word:word+8])
			ln.RecodeWord(word)
			t.tstats.RecoveredByReplica++
			t.energy.L2Writes++
			return 1
		}
	}

	// A copy parked in the L1 (cross-tier) repairs the word at the L1's
	// probe cost before ECC or a memory refetch.
	if t.cross != nil {
		t.tstats.Cross.Repairs++
		if lat, ok := t.cross.RepairWord(now, ln.BlockAddr, word, t.crossBuf[:]); ok {
			copy(ln.Data[word:word+8], t.crossBuf[:])
			ln.RecodeWord(word)
			t.tstats.Cross.Repaired++
			t.tstats.RecoveredByCross++
			return lat
		}
	}

	if t.cfg.Protect == core.ECCProt {
		t.energy.ECCOps++
		return 1 + t.verifyECC(now, ln, word)
	}
	return 1 + t.refetchFromMem(now, ln)
}

func (t *Protected) verifyECC(now uint64, ln *core.Line, word int) (extra uint64) {
	switch ecc.CheckSECDEDLineWord(ln.Data, ln.ECC, word) {
	case ecc.OK:
		return 0
	case ecc.CorrectedSingle:
		t.tstats.ErrorsDetected++
		t.tstats.RecoveredByECC++
		return 0
	case ecc.DetectedCheckBit:
		t.tstats.ErrorsDetected++
		t.tstats.RecoveredByECC++
		ln.RecodeWord(word)
		return 0
	default: // DetectedDouble
		t.tstats.ErrorsDetected++
		return t.refetchFromMem(now, ln)
	}
}

// refetchFromMem restores a line from the architectural store after a
// detected-but-uncorrectable error. Clean lines are recoverable at memory
// cost; dirty lines have lost data (the write-back that would eventually
// have propagated them can no longer be trusted).
func (t *Protected) refetchFromMem(now uint64, ln *core.Line) (extra uint64) {
	if ln.Dirty {
		t.tstats.UnrecoverableDirty++
	} else {
		t.tstats.RecoveredByMem++
	}
	extra = t.cfg.Next.Access(now, t.lines.Addr(ln.BlockAddr), cache.Read)
	copy(ln.Data, t.cfg.Mem.PeekBlock(ln.BlockAddr))
	ln.Dirty = false
	ln.Recode()
	t.energy.L2Writes++
	return extra
}

// evictLine invalidates one resident line, performing the dirty
// write-back and replica/spill bookkeeping. Dirty victims follow the
// buffered-writeback contract documented on cache.Cache: the write is
// counted below and occupies no demand latency, and the content is
// already architecturally current in Memory — but a victim whose parity
// no longer verifies is counted as a silent write-back, the propagation
// a real system would have suffered.
func (t *Protected) evictLine(v *core.Line, now uint64) {
	if v.Replica {
		t.tstats.ReplicaEvictions++
		t.lines.Invalidate(v)
		return
	}
	if v.Dirty {
		if ecc.CheckParityLineRange(v.Data, v.Parity, 0, t.cfg.BlockSize) != ecc.OK {
			t.tstats.SilentWritebacks++
		}
		t.cfg.Next.Access(now, t.lines.Addr(v.BlockAddr), cache.Write)
	}
	if rep := t.findReplica(v.BlockAddr); rep != nil {
		t.lines.Invalidate(rep)
		t.tstats.ReplicaEvictions++
	}
	if v.Spilled && t.cross != nil {
		t.cross.DropReplica(v.BlockAddr)
	}
	t.lines.Invalidate(v)
}

// evictSite evicts a resident line chosen as a replica or guest site: a
// replica, or a dead primary.
func (t *Protected) evictSite(v *core.Line, now uint64) {
	if !v.Replica {
		t.tstats.DeadEvictions++
	}
	t.evictLine(v, now)
}

// findReplica returns the resident in-tier replica of a block, sets/2 from
// its home set, or nil. Guests are the L1's and never count.
func (t *Protected) findReplica(ba uint64) *core.Line {
	if !t.cfg.Replicate {
		return nil
	}
	return t.lines.ReplicaIn(t.lines.SetAt(ba, t.replDist), ba)
}

// replicate tries to place one in-tier replica of a just-filled primary
// at distance sets/2 under the configured victim policy, spilling to the
// far tier on shortfall when cross-tier placement is wired.
func (t *Protected) replicate(primary *core.Line, now uint64) bool {
	ba := primary.BlockAddr
	if t.findReplica(ba) != nil {
		return false
	}
	if v := t.lines.ReplicaWay(t.lines.SetAt(ba, t.replDist), primary, t.cfg.Victim, now); v != nil {
		if v.Valid {
			t.evictSite(v, now)
		}
		t.lines.InstallReplica(v, primary)
		t.lines.Touch(v, now)
		t.energy.L2Writes++
		t.energy.ParityOps++
		return true
	}
	if t.cross != nil {
		t.tstats.Cross.Offers++
		if t.cross.OfferReplica(now, ba, primary.Data) {
			t.tstats.Cross.Accepted++
			primary.Spilled = true
		}
	}
	return false
}

// OfferReplica implements core.ReplicaSink: the L1 proposes parking a
// copy of one of its blocks in this tier's dead space (an invalid way of
// the block's home set, else its LRU dead primary).
func (t *Protected) OfferReplica(now uint64, blockAddr uint64, data []byte) bool {
	t.tstats.Cross.HostOffers++
	if !t.cfg.Replicate || len(data) != t.cfg.BlockSize {
		return false
	}
	// A resident primary of the same block already mirrors the
	// architectural content; a guest would only duplicate it. (The L1's
	// copy may be dirtier, but the L1 drops guests on store, so a stale
	// guest cannot serve — declining merely loses a repair opportunity.)
	if t.lines.Primary(blockAddr) != nil || t.lines.Guest(blockAddr) != nil {
		return false
	}
	v := t.lines.SpareWay(t.lines.HomeSet(blockAddr), now)
	if v == nil {
		return false
	}
	if v.Valid {
		t.evictSite(v, now)
	}
	t.lines.InstallGuest(v, blockAddr, data)
	t.lines.Touch(v, now)
	t.energy.L2Writes++
	t.energy.ParityOps++
	t.tstats.Cross.HostedLines++
	return true
}

// RepairWord implements core.ReplicaSink: supply one intact word of a
// guest copy to the L1. The latency is this tier's full reach — hit plus
// extra (remote) latency plus one transfer cycle — which is the paper's
// point about remote repair: it costs a far-tier access, not an L1 probe.
func (t *Protected) RepairWord(_ uint64, blockAddr uint64, off int, dst []byte) (uint64, bool) {
	if !t.lines.RepairFromGuest(blockAddr, off, dst, &t.tstats.Cross) {
		return 0, false
	}
	t.energy.L2Reads++
	t.energy.ParityOps++
	return t.cfg.HitLatency + t.cfg.ExtraLatency + 1, true
}

// DropReplica implements core.ReplicaSink: the L1 rewrote the block, so
// any guest copy here is stale.
func (t *Protected) DropReplica(blockAddr uint64) {
	if t.cfg.Replicate {
		t.lines.DropGuests(blockAddr, &t.tstats.Cross)
	}
}

// Inject applies one injection event from the given injector to the
// tier's array, with the L1's semantics (core.LineArray.Inject).
func (t *Protected) Inject(in *fault.Injector) { t.lines.Inject(in) }

// Reset restores the tier to its post-construction state without
// reallocating the per-line payload arrays (core.LineArray.Reset).
func (t *Protected) Reset() {
	t.lines.Reset()
	t.portBusy = 0
	t.stats = cache.Stats{}
	t.tstats = Stats{}
	t.energy = energy.Counts{}
	t.crossBuf = [8]byte{}
}
