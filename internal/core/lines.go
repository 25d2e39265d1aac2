package core

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/fault"
)

// ECCCheckLatency is the extra latency of a SEC-DED verification on a
// read (1 extra cycle in the paper: ECC loads take 2), in both tiers.
const ECCCheckLatency = 1

// Line is one physical line of a protected array: the ICR dL1 and the
// protected second tier (internal/tier) share the format. In addition to
// the usual tag state, a line carries the paper's extra metadata: a
// replica bit (1 bit per line, §5.1) and a decay counter (2 bits per
// line, §2), plus real data bytes and real check bits.
type Line struct {
	// The fields an access reads or writes come first, so a hit touches
	// as few host cache lines of the struct as it can.

	// idx is the line's fixed position in LineArray.Lines (set once at
	// construction), so set/way arithmetic never needs a search.
	idx int

	Valid   bool
	Replica bool
	// Guest marks a replica hosted on behalf of the other tier
	// (cross-tier placement): only guest lines serve that tier's repairs
	// or are dropped by its DropReplica.
	Guest bool
	// Spilled marks a primary with a copy parked in the other tier;
	// rewriting or evicting it must tell that tier to drop the copy.
	Spilled bool
	Dirty   bool
	// vuln marks a dL1 line holding dirty data whose only protection is
	// parity (no SEC-DED, no replica), open since vulnSince.
	vuln bool
	// prefetched marks a dL1 line brought in by the next-block prefetcher
	// and not yet demanded.
	prefetched bool

	// lastTick is the decay tick of the most recent access (the lazy
	// equivalent of a 2-bit saturating counter reset on access and
	// incremented every tick; the line is dead when now's tick is at
	// least 4 beyond lastTick).
	lastTick uint64
	lru      uint64

	// Adaptive dead-block prediction (dL1, timekeeping-style): the cycle
	// of the line's last access and an EWMA of its inter-access gap.
	lastAccess uint64

	Data   []byte // BlockSize bytes of real payload
	Parity []byte // 1 bit per data byte, packed
	ECC    []byte // 1 SEC-DED byte per 64-bit word (ECC protection only)

	// BlockAddr is the full block address (addr >> offset bits). Replicas
	// store the address of the block they mirror; because a replica may
	// live in a set the address does not map to, lookups must match the
	// full block address plus the replica bit.
	BlockAddr uint64

	avgGap    uint64
	vulnSince uint64
}

// Recode rewrites all check bits of the line from its current data.
func (ln *Line) Recode() {
	ecc.EncodeParityLine(ln.Data, ln.Parity)
	if ln.ECC != nil {
		ecc.EncodeSECDEDLine(ln.Data, ln.ECC)
	}
}

// RecodeWord rewrites the check bits covering the aligned 64-bit word at
// byte offset off.
func (ln *Line) RecodeWord(off int) {
	w := off &^ 7
	// Parity bits for the word's 8 bytes live in Parity[w/8].
	ln.Parity[w/8] = ecc.EncodeParity64(ecc.Word64(ln.Data, w))
	if ln.ECC != nil {
		ln.ECC[w/8] = ecc.EncodeSECDED(ecc.Word64(ln.Data, w))
	}
}

// deadPredictor says whether a valid line is predicted dead at cycle now.
type deadPredictor interface {
	dead(ln *Line, now uint64) bool
}

// Tag words. Every line has one uint64 in LineArray.tags holding its block
// address above three flag bits, so a lookup compares a whole set with one
// word per way (the parallel tag/valid/replica compare of §5.1) instead of
// walking Line structs. A block address is a byte address shifted right
// by at least three bits (blocks are multiples of 8 bytes), so it fits
// above the flags.
const (
	tagValid   uint64 = 1 << 0
	tagReplica uint64 = 1 << 1
	tagGuest   uint64 = 1 << 2
	tagShift          = 3
)

// primaryTag, replicaTag and guestTag are the tag words of a valid
// primary, own replica and guest replica of a block.
func primaryTag(blockAddr uint64) uint64 { return blockAddr<<tagShift | tagValid }
func replicaTag(blockAddr uint64) uint64 { return primaryTag(blockAddr) | tagReplica }
func guestTag(blockAddr uint64) uint64   { return replicaTag(blockAddr) | tagGuest }

// tagOf is the tag word a line's fields imply.
func tagOf(ln *Line) uint64 {
	t := ln.BlockAddr << tagShift
	if ln.Valid {
		t |= tagValid
	}
	if ln.Replica {
		t |= tagReplica
	}
	if ln.Guest {
		t |= tagGuest
	}
	return t
}

// LineArray is the set-associative array of protected lines both ICR
// tiers are built on. It owns the mechanics they share — geometry, LRU
// and decay state, primary lookup, the choice of a way for a replica or a
// guest, guest repair and drop, fault injection and reset — while each
// cache keeps its own policy: what an eviction writes back or counts,
// which energy it charges, and how it recovers from a detected error.
//
// The array is the only writer of a line's Valid, Replica, Guest and
// BlockAddr fields: the installers (Fill, InstallReplica, InstallGuest),
// Invalidate, the guest drops and Reset keep the line's tag word and its
// replica links current with them.
//
//icrvet:pooled
type LineArray struct {
	Lines []Line // sets*assoc, way-major within a set

	// tags[i] is tagOf(&Lines[i]), kept by every write of those fields.
	tags []uint64

	// Replica links (enabled by setCandidates; the dL1 only). dists are
	// the normalized, deduplicated replica distances: a block's i-th
	// candidate set is SetAt(block, dists[i]). A block has at most one
	// replica per candidate set, so links holds one slot per primary and
	// candidate: links[p*len(dists)+i] is 1 + the index of the replica of
	// primary p's block in its i-th candidate set, or 0. Walking p's slots
	// in order visits its replicas in the tag scan's order. back[r] is
	// 1 + the slot that names line r, or 0 for a line no slot names.
	dists []int //icrvet:persistent derived from the dL1's replica distances at construction, part of the pool shape
	links []int32
	back  []int32

	assoc        int    //icrvet:persistent geometry: fixed at construction
	blockSize    int    //icrvet:persistent geometry: fixed at construction
	sets         int    //icrvet:persistent geometry: fixed at construction
	offsetBits   uint   //icrvet:persistent geometry: fixed at construction
	indexMask    uint64 //icrvet:persistent geometry: fixed at construction
	wordsPerLine int    //icrvet:persistent geometry: fixed at construction
	// tickPeriod is the decay tick length in cycles (0 => window 0).
	tickPeriod uint64 //icrvet:persistent derived from the decay window at construction; the dL1 re-derives it on Reset after a Retune
	// predict is the dead-block predictor of the owning cache: the
	// array's own fixed window unless the owner installs another.
	predict deadPredictor //icrvet:persistent owner wiring: set once at construction

	clock    uint64 // LRU clock
	lastWord int    // word index of the most recent access (fault targeting)

	injectedFlips       uint64
	injectedIntoInvalid uint64
}

// NewLineArray lays out an array of size bytes with the given
// associativity and block size, allocating payload and check bits for
// every line (SEC-DED only under ECC protection). decayWindow is the
// fixed dead-block window in cycles (0 = dead as soon as an access
// completes). It panics on invalid geometry (programming error).
func NewLineArray(size, assoc, blockSize int, prot Protection, decayWindow uint64) *LineArray {
	if size <= 0 || assoc <= 0 || blockSize <= 0 {
		panic("core: size, assoc, and block size must be positive")
	}
	if blockSize&(blockSize-1) != 0 || blockSize%8 != 0 {
		panic("core: block size must be a power of two and a multiple of 8")
	}
	if size%(assoc*blockSize) != 0 {
		panic("core: size must be a multiple of assoc*blockSize")
	}
	sets := size / (assoc * blockSize)
	if sets&(sets-1) != 0 {
		panic("core: set count must be a power of two")
	}
	a := &LineArray{
		Lines:        make([]Line, sets*assoc),
		tags:         make([]uint64, sets*assoc),
		assoc:        assoc,
		blockSize:    blockSize,
		sets:         sets,
		indexMask:    uint64(sets) - 1,
		wordsPerLine: blockSize / 8,
		tickPeriod:   tickPeriodFor(decayWindow),
		lastWord:     -1,
	}
	a.predict = a
	for 1<<a.offsetBits < blockSize {
		a.offsetBits++
	}
	parityLen := ecc.ParityBytesPerLine(blockSize)
	eccLen := 0
	if prot == ECCProt {
		eccLen = ecc.SECDEDBytesPerLine(blockSize)
	}
	for i := range a.Lines {
		ln := &a.Lines[i]
		ln.idx = i
		ln.Data = make([]byte, blockSize)
		ln.Parity = make([]byte, parityLen)
		if eccLen > 0 {
			ln.ECC = make([]byte, eccLen)
		}
	}
	return a
}

// setCandidates enables replica links over the given candidate distances
// (normalized modulo the set count and deduplicated). The array must be
// empty.
func (a *LineArray) setCandidates(dists []int) {
	a.dists = dists
	a.links = make([]int32, len(a.Lines)*len(dists))
	a.back = make([]int32, len(a.Lines))
}

// tickPeriodFor converts a decay window into the 2-bit counter's tick
// length (window/4, with 0 meaning "immediately dead").
func tickPeriodFor(window uint64) uint64 {
	if window == 0 {
		return 0
	}
	p := window / 4
	if p == 0 {
		p = 1
	}
	return p
}

// Sets returns the number of sets.
func (a *LineArray) Sets() int { return a.sets }

// BlockAddr returns the block address of a byte address.
func (a *LineArray) BlockAddr(addr uint64) uint64 { return addr >> a.offsetBits }

// Addr returns the base byte address of a block.
func (a *LineArray) Addr(blockAddr uint64) uint64 { return blockAddr << a.offsetBits }

// HomeSet returns the set a block's primary copy maps to.
func (a *LineArray) HomeSet(blockAddr uint64) int { return int(blockAddr & a.indexMask) }

// SetAt returns the set dist (0 <= dist < sets) beyond a block's home
// set, wrapping around the array.
func (a *LineArray) SetAt(blockAddr uint64, dist int) int {
	s := a.HomeSet(blockAddr) + dist
	if s >= a.sets {
		s -= a.sets
	}
	return s
}

// Set returns the ways of set s.
func (a *LineArray) Set(s int) []Line {
	base := s * a.assoc
	return a.Lines[base : base+a.assoc]
}

// tick converts a cycle count into a decay tick index.
func (a *LineArray) tick(now uint64) uint64 {
	if a.tickPeriod == 0 {
		return 0
	}
	return now / a.tickPeriod
}

// dead is the fixed-window prediction: the decay counter has saturated
// (with a zero window every line is dead the moment its access completes
// — §5: "the block is immediately pronounced dead, as soon as the access
// for that block is complete").
func (a *LineArray) dead(ln *Line, now uint64) bool {
	if a.tickPeriod == 0 {
		return true
	}
	return a.tick(now)-ln.lastTick >= 4
}

// Touch refreshes a line's LRU position and decay counter.
func (a *LineArray) Touch(ln *Line, now uint64) {
	a.clock++
	ln.lru = a.clock
	ln.lastTick = a.tick(now)
}

// NoteAccess records the accessed word of a resident line as the target
// of the Direct fault model.
func (a *LineArray) NoteAccess(ln *Line, addr uint64) {
	a.lastWord = ln.idx*a.wordsPerLine + (int(addr)&(a.blockSize-1))/8
}

// Primary finds the primary copy of a block in its home set. Replicas and
// guests never serve demand accesses directly.
func (a *LineArray) Primary(blockAddr uint64) *Line {
	return a.find(a.HomeSet(blockAddr), primaryTag(blockAddr))
}

// ReplicaIn returns the block's own (non-guest) replica in set s, or nil.
func (a *LineArray) ReplicaIn(s int, blockAddr uint64) *Line {
	return a.find(s, replicaTag(blockAddr))
}

// find returns the first line of set s whose tag word is tag, or nil.
func (a *LineArray) find(s int, tag uint64) *Line {
	base := s * a.assoc
	for w, t := range a.tags[base : base+a.assoc] {
		if t == tag {
			return &a.Lines[base+w]
		}
	}
	return nil
}

// scanReplicas appends every resident replica of a block, own or guest,
// in the candidate sets to out: by candidate index, then way.
func (a *LineArray) scanReplicas(blockAddr uint64, out []*Line) []*Line {
	want := replicaTag(blockAddr)
	for _, d := range a.dists {
		base := a.SetAt(blockAddr, d) * a.assoc
		for w, t := range a.tags[base : base+a.assoc] {
			if t&^tagGuest == want {
				out = append(out, &a.Lines[base+w])
			}
		}
	}
	return out
}

// anyReplica reports whether scanReplicas would find a replica.
func (a *LineArray) anyReplica(blockAddr uint64) bool {
	want := replicaTag(blockAddr)
	for _, d := range a.dists {
		base := a.SetAt(blockAddr, d) * a.assoc
		for _, t := range a.tags[base : base+a.assoc] {
			if t&^tagGuest == want {
				return true
			}
		}
	}
	return false
}

// linked appends the replicas linked to primary p to out, in scan order.
func (a *LineArray) linked(p *Line, out []*Line) []*Line {
	k := len(a.dists)
	for _, r := range a.links[p.idx*k : p.idx*k+k] {
		if r != 0 {
			out = append(out, &a.Lines[r-1])
		}
	}
	return out
}

// hasLinked reports whether primary p has a linked replica.
func (a *LineArray) hasLinked(p *Line) bool {
	k := len(a.dists)
	for _, r := range a.links[p.idx*k : p.idx*k+k] {
		if r != 0 {
			return true
		}
	}
	return false
}

// linkedPrimary returns the primary a replica line is linked to, or nil.
func (a *LineArray) linkedPrimary(r *Line) *Line {
	if a.back == nil || a.back[r.idx] == 0 {
		return nil
	}
	return &a.Lines[int(a.back[r.idx]-1)/len(a.dists)]
}

// unlink drops every link naming line i or owned by it. Each write of a
// line's tag fields starts here, so a reused line never keeps a stale
// link.
func (a *LineArray) unlink(i int) {
	if a.back == nil {
		return
	}
	if b := a.back[i]; b != 0 {
		a.links[b-1] = 0
		a.back[i] = 0
	}
	k := len(a.dists)
	for j := i * k; j < i*k+k; j++ {
		if r := a.links[j]; r != 0 {
			a.back[r-1] = 0
			a.links[j] = 0
		}
	}
}

// linkReplica links a just-installed replica line to its block's primary,
// if the primary is resident and the line sits in one of the block's
// candidate sets.
func (a *LineArray) linkReplica(r *Line) {
	d := r.idx/a.assoc - a.HomeSet(r.BlockAddr)
	if d < 0 {
		d += a.sets
	}
	for i, x := range a.dists {
		if x == d {
			if p := a.Primary(r.BlockAddr); p != nil {
				a.link(p, i, r)
			}
			return
		}
	}
}

// relink links a just-filled primary to every replica the tag scan finds:
// replicas left behind by an evicted earlier primary (LeaveReplicas) and
// guests in a candidate set.
func (a *LineArray) relink(p *Line) {
	want := replicaTag(p.BlockAddr)
	for i, d := range a.dists {
		base := a.SetAt(p.BlockAddr, d) * a.assoc
		for w, t := range a.tags[base : base+a.assoc] {
			if t&^tagGuest == want {
				a.link(p, i, &a.Lines[base+w])
			}
		}
	}
}

// link points primary p's i-th slot at replica r.
func (a *LineArray) link(p *Line, i int, r *Line) {
	j := p.idx*len(a.dists) + i
	if a.links[j] != 0 {
		panic("core: two replicas of one block in one candidate set")
	}
	a.links[j] = int32(r.idx) + 1
	a.back[r.idx] = int32(j) + 1
}

// Invalidate drops a resident line. It is the only way a line turns
// invalid outside the array, so its tag word and links follow.
func (a *LineArray) Invalidate(ln *Line) {
	a.unlink(ln.idx)
	ln.Valid = false
	a.tags[ln.idx] &^= tagValid
}

// LRUWay returns the way a new primary takes in a set: the first invalid
// way, else the LRU line "regardless of whether it is a dead, replica or
// another primary block" (§3.1). A valid result is still resident; the
// caller evicts it.
func (a *LineArray) LRUWay(set int) *Line {
	ways := a.Set(set)
	victim := &ways[0]
	for w := range ways {
		ln := &ways[w]
		if !ln.Valid {
			return ln
		}
		if ln.lru < victim.lru {
			victim = ln
		}
	}
	return victim
}

// Fill installs block content as a clean primary. Like the other
// installers it leaves LRU and decay state to the caller's touch.
func (a *LineArray) Fill(ln *Line, blockAddr uint64, data []byte) {
	a.unlink(ln.idx)
	ln.Valid = true
	ln.Replica = false
	ln.Guest = false
	ln.Spilled = false
	ln.Dirty = false
	ln.prefetched = false
	ln.BlockAddr = blockAddr
	a.tags[ln.idx] = primaryTag(blockAddr)
	a.relink(ln)
	copy(ln.Data, data)
	ln.Recode()
}

// ReplicaWay picks a way in the given set for a new replica of primary
// under the victim policy, or nil if the policy finds no eligible line.
// An invalid way always wins. No policy ever evicts a live (non-dead)
// primary, the block's own primary, or one of its replicas. A valid
// result is still resident; the caller evicts it.
func (a *LineArray) ReplicaWay(set int, primary *Line, policy VictimPolicy, now uint64) *Line {
	ways := a.Set(set)
	var deadLine, replicaLine *Line
	for w := range ways {
		ln := &ways[w]
		if ln == primary {
			continue
		}
		if !ln.Valid {
			return ln
		}
		if ln.Replica && ln.BlockAddr == primary.BlockAddr {
			continue // never displace our own replica
		}
		// "Dead blocks" as victim candidates are dead *primaries*: the
		// dead-only policy never displaces a replica (that is what makes
		// it reliability-biased, §3.1), which is also why replication
		// ability drops once sets fill with replicas (§5.1).
		if !ln.Replica && a.predict.dead(ln, now) && (deadLine == nil || ln.lru < deadLine.lru) {
			deadLine = ln
		}
		if ln.Replica && (replicaLine == nil || ln.lru < replicaLine.lru) {
			replicaLine = ln
		}
	}
	switch policy {
	case DeadOnly:
		return deadLine
	case DeadFirst:
		if deadLine != nil {
			return deadLine
		}
		return replicaLine
	case ReplicaFirst:
		if replicaLine != nil {
			return replicaLine
		}
		return deadLine
	case ReplicaOnly:
		return replicaLine
	}
	return nil
}

// InstallReplica copies a primary into v as a replica.
func (a *LineArray) InstallReplica(v, primary *Line) {
	a.unlink(v.idx)
	v.Valid = true
	v.Replica = true
	v.Guest = false
	v.Spilled = false
	v.Dirty = false
	v.prefetched = false
	v.BlockAddr = primary.BlockAddr
	a.tags[v.idx] = replicaTag(v.BlockAddr)
	a.linkReplica(v)
	copy(v.Data, primary.Data)
	copy(v.Parity, primary.Parity)
	if v.ECC != nil && primary.ECC != nil {
		copy(v.ECC, primary.ECC)
	}
}

// SpareWay returns a way in the set that a line may take without
// displacing live data: an invalid way, else the LRU dead non-replica
// line, else nil. A valid result is still resident; the caller evicts it.
func (a *LineArray) SpareWay(set int, now uint64) *Line {
	ways := a.Set(set)
	var deadLine *Line
	for w := range ways {
		ln := &ways[w]
		if !ln.Valid {
			return ln
		}
		if !ln.Replica && a.predict.dead(ln, now) && (deadLine == nil || ln.lru < deadLine.lru) {
			deadLine = ln
		}
	}
	return deadLine
}

// InstallGuest parks a copy of another tier's block in v (a free way of
// the block's home set) as a guest replica line.
func (a *LineArray) InstallGuest(v *Line, blockAddr uint64, data []byte) {
	a.unlink(v.idx)
	v.Valid = true
	v.Replica = true
	v.Guest = true
	v.Spilled = false
	v.Dirty = false
	v.prefetched = false
	v.BlockAddr = blockAddr
	a.tags[v.idx] = guestTag(blockAddr)
	a.linkReplica(v)
	copy(v.Data, data)
	v.Recode()
}

// Guest returns the guest copy of a block parked in its home set, or nil.
func (a *LineArray) Guest(blockAddr uint64) *Line {
	return a.find(a.HomeSet(blockAddr), guestTag(blockAddr))
}

// RepairFromGuest copies the aligned 64-bit word at byte offset off of an
// intact guest copy of the block into dst and reports whether one was
// found. A corrupt guest found on the way is dropped and counted in
// s.HostCorrupt, a served word in s.HostRepairs. The scan is inline and
// scratch-free: the other tier calls it from the middle of its own
// recovery, which may itself be nested inside an access of this cache.
func (a *LineArray) RepairFromGuest(blockAddr uint64, off int, dst []byte, s *CrossStats) bool {
	if off < 0 || off+8 > a.blockSize || len(dst) < 8 {
		return false
	}
	word := off &^ 7
	want := guestTag(blockAddr)
	base := a.HomeSet(blockAddr) * a.assoc
	for w, t := range a.tags[base : base+a.assoc] {
		if t != want {
			continue
		}
		ln := &a.Lines[base+w]
		if ecc.CheckParityLineRange(ln.Data, ln.Parity, word, 8) != ecc.OK {
			a.Invalidate(ln)
			s.HostCorrupt++
			continue
		}
		copy(dst[:8], ln.Data[word:word+8])
		s.HostRepairs++
		return true
	}
	return false
}

// DropGuests invalidates every guest copy of the block (the other tier
// rewrote it, so they are stale), counting each in s.HostDrops.
func (a *LineArray) DropGuests(blockAddr uint64, s *CrossStats) {
	want := guestTag(blockAddr)
	base := a.HomeSet(blockAddr) * a.assoc
	for w, t := range a.tags[base : base+a.assoc] {
		if t == want {
			a.Invalidate(&a.Lines[base+w])
			s.HostDrops++
		}
	}
}

// CheckInvariants proves the array's derived state against its lines and
// returns the first violation: every tag word equals its line's fields;
// only resident primaries own links, and each primary's slot i names
// exactly the replica the tag scan finds in its i-th candidate set, so its
// links list what the scan lists, in the scan's order; every back link
// names the slot that names its line.
func (a *LineArray) CheckInvariants() error {
	for i := range a.Lines {
		if got, want := a.tags[i], tagOf(&a.Lines[i]); got != want {
			return fmt.Errorf("line %d: tag word %#x, its fields give %#x", i, got, want)
		}
	}
	if a.back == nil {
		return nil
	}
	k := len(a.dists)
	var linked, scanned []*Line
	for i := range a.Lines {
		ln := &a.Lines[i]
		if b := a.back[i]; b != 0 && a.links[b-1] != int32(i)+1 {
			return fmt.Errorf("line %d: back link to slot %d, which names line %d", i, b-1, a.links[b-1]-1)
		}
		for j := i * k; j < i*k+k; j++ {
			if r := a.links[j]; r != 0 && a.back[r-1] != int32(j)+1 {
				return fmt.Errorf("line %d: slot %d names line %d, whose back link is %d", i, j, r-1, a.back[r-1]-1)
			}
		}
		if !ln.Valid || ln.Replica {
			if a.hasLinked(ln) {
				return fmt.Errorf("line %d owns replica links but is no resident primary", i)
			}
			continue
		}
		for j := 0; j < k; j++ {
			if r := a.links[i*k+j]; r != 0 && int(r-1)/a.assoc != a.SetAt(ln.BlockAddr, a.dists[j]) {
				return fmt.Errorf("primary of block %#x: slot %d names line %d outside candidate set %d", ln.BlockAddr, j, r-1, j)
			}
		}
		linked = a.linked(ln, linked[:0])
		scanned = a.scanReplicas(ln.BlockAddr, scanned[:0])
		if len(linked) != len(scanned) {
			return fmt.Errorf("primary of block %#x: %d linked replicas, the scan finds %d", ln.BlockAddr, len(linked), len(scanned))
		}
		for j := range linked {
			if linked[j] != scanned[j] {
				return fmt.Errorf("primary of block %#x: link %d is line %d, the scan's is line %d", ln.BlockAddr, j, linked[j].idx, scanned[j].idx)
			}
		}
	}
	return nil
}

// Inject applies one injection event from the given injector, which draws
// word indices from every 64-bit word of the data array, valid or not.
// Flips landing in invalid lines are counted but have no architectural
// effect (there is no data there to corrupt), matching injection into a
// physical array.
func (a *LineArray) Inject(in *fault.Injector) {
	for _, f := range in.Flips(len(a.Lines)*a.wordsPerLine, a.lastWord) {
		ln := &a.Lines[f.Word/a.wordsPerLine]
		if !ln.Valid {
			a.injectedIntoInvalid++
			continue
		}
		off := (f.Word % a.wordsPerLine) * 8
		ln.Data[off+f.Bit/8] ^= 1 << uint(f.Bit%8)
		a.injectedFlips++
	}
}

// Injected returns the flips applied to valid lines and those that landed
// in invalid ones.
func (a *LineArray) Injected() (flips, intoInvalid uint64) {
	return a.injectedFlips, a.injectedIntoInvalid
}

// Reset restores the array to its post-construction state — every line
// invalid with zeroed metadata, tag words and links — without reallocating the per-line data,
// parity, or ECC arrays. Stale payload bytes in invalid lines are
// unreachable: every fill copies the full block (and recomputes its check
// bits) before the line turns valid.
func (a *LineArray) Reset() {
	for i := range a.Lines {
		ln := &a.Lines[i]
		*ln = Line{Data: ln.Data, Parity: ln.Parity, ECC: ln.ECC, idx: i}
	}
	clear(a.tags)
	clear(a.links)
	clear(a.back)
	a.clock = 0
	a.lastWord = -1
	a.injectedFlips = 0
	a.injectedIntoInvalid = 0
}
