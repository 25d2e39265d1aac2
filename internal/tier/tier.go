// Package tier implements the protected second tier of two-tier ICR: a
// set-associative array standing where the plain timing L2 stands, but
// carrying real data bytes and real parity/SEC-DED check bits
// (internal/ecc), its own dead-block decay and in-tier replica placement,
// its own fault injection, and an extra-latency knob that turns it into a
// remote/CXL tier. It implements cache.Level, so the simulator wires it
// in place of the plain L2 without touching the L1, and core.ReplicaSink,
// so the ICR L1 and the tier can park replicas in each other's dead space
// (cross-tier placement).
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

	// ECCCheckLatency is the extra latency of a SEC-DED verification on
	// the read path (defaults to 1, as in the L1).
	ECCCheckLatency uint64

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

	// Meter, if non-nil, accumulates the tier's extra array traffic
	// (replica installs, repair reads) and check computations. Demand
	// accesses are priced post-run from CacheStats, exactly like the
	// plain L2.
	Meter *energy.Meter
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

// tline is one physical tier line.
type tline struct {
	valid   bool
	replica bool
	// guest marks a line hosted on behalf of the L1 (cross-tier): only
	// guests serve the L1's repairs or are dropped by its stores.
	guest bool
	// spilled marks a primary with a copy parked in the L1; rewriting it
	// must notify the L1 to drop the now-stale copy.
	spilled   bool
	dirty     bool
	blockAddr uint64
	lastTick  uint64
	lru       uint64

	data   []byte
	parity []byte
	eccb   []byte

	// idx is the line's fixed position in Protected.lines (set once at
	// New), so fault targeting never needs a search.
	idx int
}

// Protected is the protected tier array.
//
//icrvet:pooled
type Protected struct {
	cfg          Config           //icrvet:persistent construction input: the pool shape fingerprints the tier config wholesale
	sets         int              //icrvet:persistent geometry: derived from cfg at construction
	offsetBits   uint             //icrvet:persistent geometry: derived from cfg at construction
	indexMask    uint64           //icrvet:persistent geometry: derived from cfg at construction
	wordsPerLine int              //icrvet:persistent geometry: derived from cfg at construction
	tickPeriod   uint64           //icrvet:persistent decay tick length derived from cfg.DecayWindow at construction
	replDist     int              //icrvet:persistent replica placement distance (sets/2), derived at construction
	cross        core.ReplicaSink //icrvet:persistent hierarchy wiring: set once by SetCross, stable across pooled reuse

	lines    []tline
	clock    uint64
	portBusy uint64
	lastWord int
	stats    cache.Stats
	tstats   Stats
	crossBuf [8]byte
}

var (
	_ cache.Level      = (*Protected)(nil)
	_ core.ReplicaSink = (*Protected)(nil)
)

// New builds a protected tier. It panics on invalid geometry (programming
// error, as in cache.New).
func New(cfg Config) *Protected {
	if cfg.Size <= 0 || cfg.Assoc <= 0 || cfg.BlockSize <= 0 {
		panic("tier: size, assoc, and block size must be positive")
	}
	if cfg.BlockSize&(cfg.BlockSize-1) != 0 || cfg.BlockSize%8 != 0 {
		panic("tier: block size must be a power of two and a multiple of 8")
	}
	if cfg.Size%(cfg.Assoc*cfg.BlockSize) != 0 {
		panic("tier: size must be a multiple of assoc*blockSize")
	}
	sets := cfg.Size / (cfg.Assoc * cfg.BlockSize)
	if sets&(sets-1) != 0 {
		panic("tier: set count must be a power of two")
	}
	if cfg.Next == nil || cfg.Mem == nil {
		panic("tier: Next level and Mem are required")
	}
	if cfg.Protect == 0 {
		panic("tier: a protection (parity or ECC) is required")
	}
	if cfg.HitLatency == 0 {
		cfg.HitLatency = 1
	}
	if cfg.ECCCheckLatency == 0 {
		cfg.ECCCheckLatency = 1
	}
	if cfg.Replicate && cfg.Victim == 0 {
		cfg.Victim = core.DeadOnly
	}
	offsetBits := uint(0)
	for 1<<offsetBits < cfg.BlockSize {
		offsetBits++
	}
	t := &Protected{
		cfg:          cfg,
		sets:         sets,
		offsetBits:   offsetBits,
		indexMask:    uint64(sets) - 1,
		wordsPerLine: cfg.BlockSize / 8,
		replDist:     sets / 2,
		lines:        make([]tline, sets*cfg.Assoc),
		lastWord:     -1,
	}
	if cfg.DecayWindow > 0 {
		t.tickPeriod = cfg.DecayWindow / 4
		if t.tickPeriod == 0 {
			t.tickPeriod = 1
		}
	}
	parityLen := ecc.ParityBytesPerLine(cfg.BlockSize)
	eccLen := 0
	if cfg.Protect == core.ECCProt {
		eccLen = ecc.SECDEDBytesPerLine(cfg.BlockSize)
	}
	for i := range t.lines {
		t.lines[i].idx = i
		t.lines[i].data = make([]byte, cfg.BlockSize)
		t.lines[i].parity = make([]byte, parityLen)
		if eccLen > 0 {
			t.lines[i].eccb = make([]byte, eccLen)
		}
	}
	return t
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
func (t *Protected) TierStats() Stats { return t.tstats }

func (t *Protected) blockAddr(addr uint64) uint64 { return addr >> t.offsetBits }
func (t *Protected) homeSet(ba uint64) int        { return int(ba & t.indexMask) }

func (t *Protected) tick(now uint64) uint64 {
	if t.tickPeriod == 0 {
		return 0
	}
	return now / t.tickPeriod
}

// dead reports whether the line is predicted dead at cycle now (fixed
// window; a zero window pronounces a line dead as soon as its access
// completes, the paper's most aggressive setting).
func (t *Protected) dead(ln *tline, now uint64) bool {
	if t.tickPeriod == 0 {
		return true
	}
	return t.tick(now)-ln.lastTick >= 4
}

func (t *Protected) touch(ln *tline, now uint64) {
	t.clock++
	ln.lru = t.clock
	ln.lastTick = t.tick(now)
}

// lookup finds the primary copy of a block in its home set. Replicas and
// guests never serve demand accesses directly.
func (t *Protected) lookup(ba uint64) *tline {
	base := t.homeSet(ba) * t.cfg.Assoc
	for w := 0; w < t.cfg.Assoc; w++ {
		ln := &t.lines[base+w]
		if ln.valid && !ln.replica && ln.blockAddr == ba {
			return ln
		}
	}
	return nil
}

func (t *Protected) recode(ln *tline) {
	ecc.EncodeParityLine(ln.data, ln.parity)
	if ln.eccb != nil {
		ecc.EncodeSECDEDLine(ln.data, ln.eccb)
	}
}

func (t *Protected) recodeWord(ln *tline, off int) {
	w := off &^ 7
	ln.parity[w/8] = ecc.EncodeParity64(ecc.Word64(ln.data, w))
	if ln.eccb != nil {
		ln.eccb[w/8] = ecc.EncodeSECDED(ecc.Word64(ln.data, w))
	}
}

// Access implements cache.Level.
func (t *Protected) Access(now uint64, addr uint64, kind cache.Kind) uint64 {
	ba := t.blockAddr(addr)
	t.clock++

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

	if ln := t.lookup(ba); ln != nil {
		off := int(addr) & (t.cfg.BlockSize - 1)
		t.lastWord = ln.idx*t.wordsPerLine + off/8
		var extra uint64
		if kind == cache.Write {
			t.refreshFromMem(ln, now)
		} else {
			extra = t.verifyRead(now, ln, off)
		}
		t.touch(ln, now)
		return portDelay + t.cfg.HitLatency + t.cfg.ExtraLatency + extra
	}

	// Miss: count, fetch from memory, allocate (write-allocate, mirroring
	// the plain L2's timing shape).
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
	v := t.evictFor(t.homeSet(ba), now)
	t.fill(v, ba, now)
	if kind == cache.Write {
		v.dirty = true
	}
	t.lastWord = v.idx*t.wordsPerLine + (int(addr)&(t.cfg.BlockSize-1))/8
	if t.cfg.Replicate {
		t.tstats.ReplAttempts++
		if t.replicate(v, now) {
			t.tstats.ReplSuccesses++
		}
	}
	return portDelay + lat
}

// refreshFromMem re-mirrors a line (and its in-tier replicas) from the
// architectural store after a write reached this tier: Memory was updated
// before the write was forwarded down (the L1 write-back and
// write-through paths both do so), so the architectural content is
// current by construction.
func (t *Protected) refreshFromMem(ln *tline, now uint64) {
	copy(ln.data, t.cfg.Mem.PeekBlock(ln.blockAddr))
	t.recode(ln)
	ln.dirty = true
	if t.cfg.Meter != nil {
		t.cfg.Meter.AddParity(1)
		if ln.eccb != nil {
			t.cfg.Meter.AddECC(1)
		}
	}
	// In-tier replicas are updated in place; a copy parked in the L1 is
	// stale and must be dropped.
	if t.cfg.Replicate {
		base := t.replicaSet(ln.blockAddr) * t.cfg.Assoc
		for w := 0; w < t.cfg.Assoc; w++ {
			rep := &t.lines[base+w]
			if rep.valid && rep.replica && !rep.guest && rep.blockAddr == ln.blockAddr {
				copy(rep.data, ln.data)
				copy(rep.parity, ln.parity)
				if rep.eccb != nil && ln.eccb != nil {
					copy(rep.eccb, ln.eccb)
				}
				t.touch(rep, now)
				if t.cfg.Meter != nil {
					t.cfg.Meter.AddL2Write(1)
				}
			}
		}
	}
	if ln.spilled {
		ln.spilled = false
		if t.cross != nil {
			t.cross.DropReplica(ln.blockAddr)
			t.tstats.Cross.Drops++
		}
	}
}

// verifyRead checks the accessed word of a read hit and recovers from
// detected errors. The ladder mirrors the L1 (§3.2), with memory standing
// in for "the level below": replica → cross-tier copy → ECC → refetch;
// dirty uncorrectable lines are lost data.
func (t *Protected) verifyRead(now uint64, ln *tline, off int) (extra uint64) {
	word := off &^ 7

	rep := t.findReplica(ln.blockAddr)
	useECC := t.cfg.Protect == core.ECCProt && rep == nil
	if t.cfg.Meter != nil {
		if useECC {
			t.cfg.Meter.AddECC(1)
		} else {
			t.cfg.Meter.AddParity(1)
		}
	}

	if useECC {
		return t.cfg.ECCCheckLatency + t.verifyECC(now, ln, word)
	}

	if ecc.CheckParityLineRange(ln.data, ln.parity, word, 8) == ecc.OK {
		return 0
	}
	t.tstats.ErrorsDetected++

	if rep != nil {
		if t.cfg.Meter != nil {
			t.cfg.Meter.AddL2Read(1)
			t.cfg.Meter.AddParity(1)
		}
		if ecc.CheckParityLineRange(rep.data, rep.parity, word, 8) == ecc.OK {
			copy(ln.data[word:word+8], rep.data[word:word+8])
			t.recodeWord(ln, word)
			t.tstats.RecoveredByReplica++
			if t.cfg.Meter != nil {
				t.cfg.Meter.AddL2Write(1)
			}
			return 1
		}
	}

	// A copy parked in the L1 (cross-tier) repairs the word at the L1's
	// probe cost before ECC or a memory refetch.
	if t.cross != nil {
		t.tstats.Cross.Repairs++
		if lat, ok := t.cross.RepairWord(now, ln.blockAddr, word, t.crossBuf[:]); ok {
			copy(ln.data[word:word+8], t.crossBuf[:])
			t.recodeWord(ln, word)
			t.tstats.Cross.Repaired++
			t.tstats.RecoveredByCross++
			return lat
		}
	}

	if t.cfg.Protect == core.ECCProt {
		if t.cfg.Meter != nil {
			t.cfg.Meter.AddECC(1)
		}
		return 1 + t.verifyECC(now, ln, word)
	}
	return 1 + t.refetchFromMem(now, ln)
}

func (t *Protected) verifyECC(now uint64, ln *tline, word int) (extra uint64) {
	switch ecc.CheckSECDEDLineWord(ln.data, ln.eccb, word) {
	case ecc.OK:
		return 0
	case ecc.CorrectedSingle:
		t.tstats.ErrorsDetected++
		t.tstats.RecoveredByECC++
		return 0
	case ecc.DetectedCheckBit:
		t.tstats.ErrorsDetected++
		t.tstats.RecoveredByECC++
		t.recodeWord(ln, word)
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
func (t *Protected) refetchFromMem(now uint64, ln *tline) (extra uint64) {
	if ln.dirty {
		t.tstats.UnrecoverableDirty++
	} else {
		t.tstats.RecoveredByMem++
	}
	extra = t.cfg.Next.Access(now, ln.blockAddr<<t.offsetBits, cache.Read)
	copy(ln.data, t.cfg.Mem.PeekBlock(ln.blockAddr))
	ln.dirty = false
	t.recode(ln)
	if t.cfg.Meter != nil {
		t.cfg.Meter.AddL2Write(1)
	}
	return extra
}

// fill installs block content from the architectural store.
func (t *Protected) fill(ln *tline, ba uint64, now uint64) {
	ln.valid = true
	ln.replica = false
	ln.guest = false
	ln.spilled = false
	ln.dirty = false
	ln.blockAddr = ba
	copy(ln.data, t.cfg.Mem.PeekBlock(ba))
	t.recode(ln)
	t.touch(ln, now)
}

// evictFor frees the LRU way of a set for a new primary. Dirty victims
// follow the buffered-writeback contract documented on cache.Cache: the
// write is counted below and occupies no demand latency, and the content
// is already architecturally current in Memory — but a victim whose
// parity no longer verifies is counted as a silent write-back, the
// propagation a real system would have suffered.
func (t *Protected) evictFor(set int, now uint64) *tline {
	base := set * t.cfg.Assoc
	victim := base
	for w := 0; w < t.cfg.Assoc; w++ {
		ln := &t.lines[base+w]
		if !ln.valid {
			victim = base + w
			break
		}
		if ln.lru < t.lines[victim].lru {
			victim = base + w
		}
	}
	v := &t.lines[victim]
	if v.valid {
		t.evictLine(v, now)
	}
	return v
}

// evictLine invalidates one line, performing the dirty write-back and
// replica/spill bookkeeping.
func (t *Protected) evictLine(v *tline, now uint64) {
	if v.replica {
		t.tstats.ReplicaEvictions++
		v.valid = false
		return
	}
	if v.dirty {
		if ecc.CheckParityLineRange(v.data, v.parity, 0, t.cfg.BlockSize) != ecc.OK {
			t.tstats.SilentWritebacks++
		}
		t.cfg.Next.Access(now, v.blockAddr<<t.offsetBits, cache.Write)
	}
	if t.cfg.Replicate {
		t.invalidateReplicas(v.blockAddr)
	}
	if v.spilled && t.cross != nil {
		t.cross.DropReplica(v.blockAddr)
	}
	v.valid = false
}

func (t *Protected) replicaSet(ba uint64) int {
	s := t.homeSet(ba) + t.replDist
	if s >= t.sets {
		s -= t.sets
	}
	return s
}

// findReplica returns the resident in-tier replica of a block, or nil.
func (t *Protected) findReplica(ba uint64) *tline {
	if !t.cfg.Replicate {
		return nil
	}
	base := t.replicaSet(ba) * t.cfg.Assoc
	for w := 0; w < t.cfg.Assoc; w++ {
		ln := &t.lines[base+w]
		if ln.valid && ln.replica && !ln.guest && ln.blockAddr == ba {
			return ln
		}
	}
	return nil
}

func (t *Protected) invalidateReplicas(ba uint64) {
	base := t.replicaSet(ba) * t.cfg.Assoc
	for w := 0; w < t.cfg.Assoc; w++ {
		ln := &t.lines[base+w]
		if ln.valid && ln.replica && !ln.guest && ln.blockAddr == ba {
			ln.valid = false
			t.tstats.ReplicaEvictions++
		}
	}
}

// replicate tries to place one in-tier replica of a just-filled primary
// at distance sets/2, spilling to the far tier on shortfall when
// cross-tier placement is wired.
func (t *Protected) replicate(primary *tline, now uint64) bool {
	ba := primary.blockAddr
	if t.findReplica(ba) != nil {
		return false
	}
	if v := t.replicaVictim(t.replicaSet(ba), now); v != nil {
		v.valid = true
		v.replica = true
		v.guest = false
		v.spilled = false
		v.dirty = false
		v.blockAddr = ba
		copy(v.data, primary.data)
		copy(v.parity, primary.parity)
		if v.eccb != nil && primary.eccb != nil {
			copy(v.eccb, primary.eccb)
		}
		t.touch(v, now)
		if t.cfg.Meter != nil {
			t.cfg.Meter.AddL2Write(1)
			t.cfg.Meter.AddParity(1)
		}
		return true
	}
	if t.cross != nil {
		t.tstats.Cross.Offers++
		if t.cross.OfferReplica(now, ba, primary.data) {
			t.tstats.Cross.Accepted++
			primary.spilled = true
		}
	}
	return false
}

// replicaVictim picks a way for a new in-tier replica under the
// configured victim policy. Live primaries are never displaced; existing
// replicas and guests are candidates under the replica-consuming
// policies.
func (t *Protected) replicaVictim(set int, now uint64) *tline {
	base := set * t.cfg.Assoc
	var deadLine, replicaLine *tline
	for w := 0; w < t.cfg.Assoc; w++ {
		ln := &t.lines[base+w]
		if !ln.valid {
			return ln
		}
		if !ln.replica && t.dead(ln, now) && (deadLine == nil || ln.lru < deadLine.lru) {
			deadLine = ln
		}
		if ln.replica && (replicaLine == nil || ln.lru < replicaLine.lru) {
			replicaLine = ln
		}
	}
	var v *tline
	switch t.cfg.Victim {
	case core.DeadOnly:
		v = deadLine
	case core.DeadFirst:
		v = deadLine
		if v == nil {
			v = replicaLine
		}
	case core.ReplicaFirst:
		v = replicaLine
		if v == nil {
			v = deadLine
		}
	case core.ReplicaOnly:
		v = replicaLine
	}
	if v == nil {
		return nil
	}
	if v.replica {
		t.tstats.ReplicaEvictions++
		v.valid = false
	} else {
		t.tstats.DeadEvictions++
		t.evictLine(v, now)
	}
	return v
}

// ---------------------------------------------------------------------------
// ReplicaSink (hosting the L1's blocks)
// ---------------------------------------------------------------------------

// OfferReplica implements core.ReplicaSink: the L1 proposes parking a
// copy of one of its blocks in this tier's dead space.
func (t *Protected) OfferReplica(now uint64, blockAddr uint64, data []byte) bool {
	t.tstats.Cross.HostOffers++
	if !t.cfg.Replicate || len(data) != t.cfg.BlockSize {
		return false
	}
	// A resident primary of the same block already mirrors the
	// architectural content; a guest would only duplicate it. (The L1's
	// copy may be dirtier, but the L1 drops guests on store, so a stale
	// guest cannot serve — declining merely loses a repair opportunity.)
	if t.lookup(blockAddr) != nil || t.findGuest(blockAddr) != nil {
		return false
	}
	v := t.hostVictim(t.homeSet(blockAddr), now)
	if v == nil {
		return false
	}
	v.valid = true
	v.replica = true
	v.guest = true
	v.spilled = false
	v.dirty = false
	v.blockAddr = blockAddr
	copy(v.data, data)
	t.recode(v)
	t.touch(v, now)
	if t.cfg.Meter != nil {
		t.cfg.Meter.AddL2Write(1)
		t.cfg.Meter.AddParity(1)
	}
	t.tstats.Cross.HostedLines++
	return true
}

// hostVictim picks a way for a guest: an invalid way first, else the LRU
// dead non-replica line.
func (t *Protected) hostVictim(set int, now uint64) *tline {
	base := set * t.cfg.Assoc
	var deadLine *tline
	for w := 0; w < t.cfg.Assoc; w++ {
		ln := &t.lines[base+w]
		if !ln.valid {
			return ln
		}
		if ln.replica {
			continue
		}
		if t.dead(ln, now) && (deadLine == nil || ln.lru < deadLine.lru) {
			deadLine = ln
		}
	}
	if deadLine == nil {
		return nil
	}
	t.tstats.DeadEvictions++
	t.evictLine(deadLine, now)
	return deadLine
}

func (t *Protected) findGuest(ba uint64) *tline {
	base := t.homeSet(ba) * t.cfg.Assoc
	for w := 0; w < t.cfg.Assoc; w++ {
		ln := &t.lines[base+w]
		if ln.valid && ln.guest && ln.blockAddr == ba {
			return ln
		}
	}
	return nil
}

// RepairWord implements core.ReplicaSink: supply one intact word of a
// guest copy to the L1. The latency is this tier's full reach — hit plus
// extra (remote) latency plus one transfer cycle — which is the paper's
// point about remote repair: it costs a far-tier access, not an L1 probe.
func (t *Protected) RepairWord(_ uint64, blockAddr uint64, off int, dst []byte) (uint64, bool) {
	if off < 0 || off+8 > t.cfg.BlockSize || len(dst) < 8 {
		return 0, false
	}
	ln := t.findGuest(blockAddr)
	if ln == nil {
		return 0, false
	}
	word := off &^ 7
	if ecc.CheckParityLineRange(ln.data, ln.parity, word, 8) != ecc.OK {
		ln.valid = false
		t.tstats.Cross.HostCorrupt++
		return 0, false
	}
	copy(dst[:8], ln.data[word:word+8])
	if t.cfg.Meter != nil {
		t.cfg.Meter.AddL2Read(1)
		t.cfg.Meter.AddParity(1)
	}
	t.tstats.Cross.HostRepairs++
	return t.cfg.HitLatency + t.cfg.ExtraLatency + 1, true
}

// DropReplica implements core.ReplicaSink: the L1 rewrote the block, so
// any guest copy here is stale.
func (t *Protected) DropReplica(blockAddr uint64) {
	if !t.cfg.Replicate {
		return
	}
	if ln := t.findGuest(blockAddr); ln != nil {
		ln.valid = false
		t.tstats.Cross.HostDrops++
	}
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

// WordCount returns the total number of 64-bit words in the data array.
func (t *Protected) WordCount() int { return len(t.lines) * t.wordsPerLine }

// Inject applies one injection event from the given injector, mirroring
// the L1's semantics: flips landing in invalid lines are counted but have
// no architectural effect.
func (t *Protected) Inject(in *fault.Injector) {
	flips := in.Flips(t.WordCount(), t.lastWord)
	for _, f := range flips {
		li := f.Word / t.wordsPerLine
		ln := &t.lines[li]
		if !ln.valid {
			t.tstats.InjectedIntoInvalid++
			continue
		}
		off := (f.Word % t.wordsPerLine) * 8
		ln.data[off+f.Bit/8] ^= 1 << uint(f.Bit%8)
		t.tstats.InjectedFlips++
	}
}

// ---------------------------------------------------------------------------
// Reset (arena reuse)
// ---------------------------------------------------------------------------

// Reset restores the tier to its post-construction state without
// reallocating the per-line payload arrays. Stale payload bytes in
// invalid lines are unreachable: every fill copies the full block and
// recomputes check bits before the line turns valid.
func (t *Protected) Reset() {
	for i := range t.lines {
		l := &t.lines[i]
		data, parity, eccb := l.data, l.parity, l.eccb
		*l = tline{data: data, parity: parity, eccb: eccb, idx: i}
	}
	t.clock = 0
	t.portBusy = 0
	t.lastWord = -1
	t.stats = cache.Stats{}
	t.tstats = Stats{}
	t.crossBuf = [8]byte{}
}
