// Package energy models the dynamic energy of the L1/L2 data hierarchy the
// way the paper does (§4.1, §5.8, §5.9): a per-access energy for each cache
// level — the paper obtains these from CACTI 3.0 — plus the cost of parity
// and SEC-DED computations expressed as a fraction of an L1 access (the
// paper evaluates parity:ECC ratios of 15%:30% and 10%:30%).
//
// The events are counted where they happen: the ICR dL1 (core.Cache) and
// the protected tier (tier.Protected) each keep a Counts beside their other
// counters, and the L2 and memory demand traffic comes from their access
// statistics. The simulator adds them up once a run ends and prices the
// sum once with the run's Params.
//
// All values are parameters: the defaults are CACTI-3-class figures for the
// Table 1 geometry (16KB 4-way L1, 256KB 4-way L2, 0.18um-era technology),
// and every experiment reports *relative* energy, which is what the paper
// plots.
package energy

// Params holds per-event energies in nanojoules, plus the check-computation
// cost fractions.
type Params struct {
	// L1Read and L1Write are the dynamic energy of one full-line L1
	// access (a fill, an install, a line read).
	L1Read, L1Write float64
	// L1WordWrite is the energy of writing a single 64-bit word into a
	// known way (a store, or a replica word update): far fewer bitlines
	// switch than on a line operation.
	L1WordWrite float64
	// L2Read and L2Write are the dynamic energy of one L2 access.
	L2Read, L2Write float64
	// ParityFrac is the cost of one parity computation/verification as a
	// fraction of L1Read.
	ParityFrac float64
	// ECCFrac is the cost of one SEC-DED computation/verification as a
	// fraction of L1Read.
	ECCFrac float64

	// RCacheRead and RCacheWrite price accesses to the separate
	// duplication cache (the Kim & Somani r-cache baseline), a small
	// (~2KB) array.
	RCacheRead, RCacheWrite float64

	// MemRead and MemWrite price one memory-tier (DRAM/remote/CXL)
	// access per direction. The defaults are zero — the paper's energy
	// study stops at the L2 — so schema-1/2 reports are unchanged; the
	// two-tier experiments opt in via WithMemoryCosts.
	MemRead, MemWrite float64
}

// DefaultParams returns CACTI-3-class energies for the paper's cache
// geometry with the paper's baseline check-cost ratios (parity 15%, ECC 30%
// of an L1 access; Figure 17(b)).
func DefaultParams() Params {
	return Params{
		L1Read:      0.45, // nJ, 16KB 4-way 64B-line SRAM read (0.18um class)
		L1Write:     0.48,
		L2Read:      3.40, // nJ, 256KB 4-way (CACTI-3 class, 0.18um)
		L2Write:     3.70,
		ParityFrac:  0.15,
		ECCFrac:     0.30,
		RCacheRead:  0.12, // nJ, ~2KB side array
		RCacheWrite: 0.13,
	}
}

// WithCheckCosts returns a copy of p with the parity and ECC computation
// fractions replaced. Used for the Figure 17(b)/(c) sensitivity points.
func (p Params) WithCheckCosts(parityFrac, eccFrac float64) Params {
	p.ParityFrac = parityFrac
	p.ECCFrac = eccFrac
	return p
}

// WithMemoryCosts returns a copy of p with the memory-tier per-access
// energies replaced. Used by the two-tier experiments, which care about
// traffic that escapes the protected hierarchy.
func (p Params) WithMemoryCosts(memRead, memWrite float64) Params {
	p.MemRead = memRead
	p.MemWrite = memWrite
	return p
}

// Counts tallies energy-relevant events.
type Counts struct {
	L1Reads      uint64
	L1Writes     uint64
	L1WordWrites uint64
	L2Reads      uint64
	L2Writes     uint64
	// ParityOps counts parity computations (on writes) and verifications
	// (on reads).
	ParityOps uint64
	// ECCOps counts SEC-DED computations and verifications.
	ECCOps uint64
	// RCacheReads and RCacheWrites count duplication-cache probes and
	// deposits.
	RCacheReads, RCacheWrites uint64
	// MemReads and MemWrites count memory-tier accesses per direction.
	MemReads, MemWrites uint64
}

// Add accumulates another Counts into c.
func (c *Counts) Add(o Counts) {
	c.L1Reads += o.L1Reads
	c.L1Writes += o.L1Writes
	c.L1WordWrites += o.L1WordWrites
	c.L2Reads += o.L2Reads
	c.L2Writes += o.L2Writes
	c.ParityOps += o.ParityOps
	c.ECCOps += o.ECCOps
	c.RCacheReads += o.RCacheReads
	c.RCacheWrites += o.RCacheWrites
	c.MemReads += o.MemReads
	c.MemWrites += o.MemWrites
}

// L1Energy returns the L1 array energy of c in nJ.
func (p Params) L1Energy(c Counts) float64 {
	return float64(c.L1Reads)*p.L1Read +
		float64(c.L1Writes)*p.L1Write +
		float64(c.L1WordWrites)*p.L1WordWrite
}

// L2Energy returns the L2 array energy of c in nJ.
func (p Params) L2Energy(c Counts) float64 {
	return float64(c.L2Reads)*p.L2Read + float64(c.L2Writes)*p.L2Write
}

// CheckEnergy returns the parity/ECC computation energy of c in nJ.
func (p Params) CheckEnergy(c Counts) float64 {
	unit := p.L1Read
	return float64(c.ParityOps)*p.ParityFrac*unit +
		float64(c.ECCOps)*p.ECCFrac*unit
}

// RCacheEnergy returns the duplication-cache energy of c in nJ.
func (p Params) RCacheEnergy(c Counts) float64 {
	return float64(c.RCacheReads)*p.RCacheRead +
		float64(c.RCacheWrites)*p.RCacheWrite
}

// MemEnergy returns the memory-tier energy of c in nJ (zero under the
// default parameters, which price only the on-chip hierarchy).
func (p Params) MemEnergy(c Counts) float64 {
	return float64(c.MemReads)*p.MemRead +
		float64(c.MemWrites)*p.MemWrite
}
