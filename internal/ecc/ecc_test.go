package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParityByte(t *testing.T) {
	cases := []struct {
		b    byte
		want byte
	}{
		{0x00, 0}, {0x01, 1}, {0x03, 0}, {0x07, 1},
		{0xff, 0}, {0xfe, 1}, {0x80, 1}, {0xaa, 0},
	}
	for _, c := range cases {
		if got := ParityByte(c.b); got != c.want {
			t.Errorf("ParityByte(%#x) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestEncodeParity64RoundTrip(t *testing.T) {
	words := []uint64{0, 1, 0xffffffffffffffff, 0xdeadbeefcafebabe, 1 << 63}
	for _, w := range words {
		if r := CheckParity64(w, EncodeParity64(w)); r != OK {
			t.Errorf("CheckParity64(%#x, encoded) = %v, want OK", w, r)
		}
	}
}

func TestEncodeParity64MatchesByteLoop(t *testing.T) {
	// The SWAR fold-and-gather must agree with the definitional per-byte
	// loop on every input.
	ref := func(word uint64) uint8 {
		var p uint8
		for i := 0; i < 8; i++ {
			p |= ParityByte(byte(word>>(8*i))) << i
		}
		return p
	}
	f := func(word uint64) bool {
		return EncodeParity64(word) == ref(word)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, w := range []uint64{0, ^uint64(0), 0x0102040810204080, 0x0101010101010101} {
		if EncodeParity64(w) != ref(w) {
			t.Errorf("EncodeParity64(%#x) = %#x, want %#x", w, EncodeParity64(w), ref(w))
		}
	}
}

func TestLineParityUnalignedTail(t *testing.T) {
	// Lines whose length is not a multiple of 8 exercise the byte-loop
	// tails of EncodeParityLine and CheckParityLineRange.
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 7, 8, 9, 20, 31, 32, 33} {
		data := make([]byte, n)
		rng.Read(data)
		parity := make([]byte, ParityBytesPerLine(n))
		EncodeParityLine(data, parity)
		if r := CheckParityLineRange(data, parity, 0, n); r != OK {
			t.Errorf("len %d: clean check = %v, want OK", n, r)
		}
		for i := 0; i < n; i++ {
			data[i] ^= 0x10
			if r := CheckParityLineRange(data, parity, 0, n); r != DetectedSingle {
				t.Errorf("len %d: flip at %d = %v, want DetectedSingle", n, i, r)
			}
			data[i] ^= 0x10
		}
	}
}

func TestParityDetectsSingleBitFlip(t *testing.T) {
	f := func(word uint64, bit uint8) bool {
		p := EncodeParity64(word)
		flipped := word ^ (1 << (bit % 64))
		return CheckParity64(flipped, p) == DetectedSingle
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParityMissesDoubleFlipSameByte(t *testing.T) {
	// Two flips within the same byte preserve byte parity: a documented
	// limitation of byte parity that SEC-DED does not share.
	word := uint64(0x0123456789abcdef)
	p := EncodeParity64(word)
	flipped := word ^ 0x3 // bits 0 and 1, same byte
	if r := CheckParity64(flipped, p); r != OK {
		t.Errorf("double flip in one byte: got %v, want OK (undetected)", r)
	}
}

func TestParityDetectsDoubleFlipDifferentBytes(t *testing.T) {
	word := uint64(0x0123456789abcdef)
	p := EncodeParity64(word)
	flipped := word ^ (1 | 1<<8) // bit 0 of byte 0 and bit 0 of byte 1
	if r := CheckParity64(flipped, p); r != DetectedSingle {
		t.Errorf("double flip across bytes: got %v, want DetectedSingle", r)
	}
}

func TestSECDEDCleanWord(t *testing.T) {
	f := func(word uint64) bool {
		c := EncodeSECDED(word)
		got, r := CheckSECDED(word, c)
		return r == OK && got == word
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSECDEDCorrectsEverySingleBit(t *testing.T) {
	words := []uint64{0, 0xffffffffffffffff, 0x0123456789abcdef, 0x5555aaaa5555aaaa}
	for _, w := range words {
		c := EncodeSECDED(w)
		for bit := 0; bit < 64; bit++ {
			flipped := w ^ (1 << uint(bit))
			got, r := CheckSECDED(flipped, c)
			if r != CorrectedSingle {
				t.Fatalf("word %#x bit %d: result %v, want CorrectedSingle", w, bit, r)
			}
			if got != w {
				t.Fatalf("word %#x bit %d: corrected to %#x, want %#x", w, bit, got, w)
			}
		}
	}
}

func TestSECDEDCorrectsSingleBitQuick(t *testing.T) {
	f := func(word uint64, bit uint8) bool {
		c := EncodeSECDED(word)
		flipped := word ^ (1 << (bit % 64))
		got, r := CheckSECDED(flipped, c)
		return r == CorrectedSingle && got == word
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSECDEDDetectsDoubleBit(t *testing.T) {
	f := func(word uint64, b1, b2 uint8) bool {
		i, j := b1%64, b2%64
		if i == j {
			return true // not a double flip
		}
		c := EncodeSECDED(word)
		flipped := word ^ (1 << i) ^ (1 << j)
		_, r := CheckSECDED(flipped, c)
		return r == DetectedDouble
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSECDEDCheckBitError(t *testing.T) {
	word := uint64(0xfeedfacecafef00d)
	c := EncodeSECDED(word)
	for bit := 0; bit < 8; bit++ {
		got, r := CheckSECDED(word, c^(1<<uint(bit)))
		if got != word {
			t.Fatalf("check-bit %d flip altered data", bit)
		}
		if !r.DataIntact() {
			t.Fatalf("check-bit %d flip: result %v should leave data intact", bit, r)
		}
		if !r.Detected() {
			t.Fatalf("check-bit %d flip went undetected", bit)
		}
	}
}

func TestDataPositionsDistinct(t *testing.T) {
	seen := map[uint8]bool{}
	for i, p := range dataPos {
		if p == 0 || p > 72 {
			t.Fatalf("data bit %d mapped to invalid position %d", i, p)
		}
		if p&(p-1) == 0 {
			t.Fatalf("data bit %d mapped to check position %d", i, p)
		}
		if seen[p] {
			t.Fatalf("position %d used twice", p)
		}
		seen[p] = true
	}
}

func TestLineParityRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 64)
		rng.Read(data)
		parity := make([]byte, ParityBytesPerLine(len(data)))
		EncodeParityLine(data, parity)
		for i := range data {
			if r := CheckParityLineByte(data, parity, i); r != OK {
				t.Fatalf("trial %d byte %d: clean check failed: %v", trial, i, r)
			}
		}
		if r := CheckParityLineRange(data, parity, 0, len(data)); r != OK {
			t.Fatalf("trial %d: clean range check failed: %v", trial, r)
		}
		// Flip one bit; only that byte should fail.
		i := rng.Intn(len(data))
		data[i] ^= 1 << uint(rng.Intn(8))
		if r := CheckParityLineByte(data, parity, i); r != DetectedSingle {
			t.Fatalf("trial %d: flip in byte %d undetected", trial, i)
		}
		if r := CheckParityLineRange(data, parity, i&^7, 8); r != DetectedSingle {
			t.Fatalf("trial %d: range check missed flip", trial)
		}
	}
}

func TestLineSECDEDCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 64)
		rng.Read(data)
		orig := make([]byte, len(data))
		copy(orig, data)
		check := make([]byte, SECDEDBytesPerLine(len(data)))
		EncodeSECDEDLine(data, check)

		off := rng.Intn(len(data))
		data[off] ^= 1 << uint(rng.Intn(8))
		if r := CheckSECDEDLineWord(data, check, off); r != CorrectedSingle {
			t.Fatalf("trial %d: result %v, want CorrectedSingle", trial, r)
		}
		for i := range data {
			if data[i] != orig[i] {
				t.Fatalf("trial %d: byte %d not restored", trial, i)
			}
		}
	}
}

func TestWord64RoundTrip(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	for off := 0; off < 64; off += 8 {
		v := Word64(data, off)
		PutWord64(data, off, v^0xffffffffffffffff)
		if got := Word64(data, off); got != v^0xffffffffffffffff {
			t.Fatalf("off %d: got %#x", off, got)
		}
		PutWord64(data, off, v)
		if got := Word64(data, off); got != v {
			t.Fatalf("off %d: restore failed", off)
		}
	}
}

func TestResultClassification(t *testing.T) {
	if OK.Detected() {
		t.Error("OK should not be Detected")
	}
	for _, r := range []Result{CorrectedSingle, DetectedSingle, DetectedDouble, DetectedCheckBit} {
		if !r.Detected() {
			t.Errorf("%v should be Detected", r)
		}
	}
	for _, r := range []Result{OK, CorrectedSingle, DetectedCheckBit} {
		if !r.DataIntact() {
			t.Errorf("%v should be DataIntact", r)
		}
	}
	for _, r := range []Result{DetectedSingle, DetectedDouble} {
		if r.DataIntact() {
			t.Errorf("%v should not be DataIntact", r)
		}
	}
	if Result(99).String() != "unknown" {
		t.Error("unknown result should stringify to unknown")
	}
}

// TestCodecsAllocFree pins the codecs the dL1 runs on every protected
// access at zero allocations.
func TestCodecsAllocFree(t *testing.T) {
	data := make([]byte, 64)
	parity := make([]byte, ParityBytesPerLine(len(data)))
	word := uint64(0xdeadbeefcafebabe)
	check := EncodeSECDED(word)
	got := testing.AllocsPerRun(100, func() {
		if EncodeSECDED(word) != check {
			t.Fatal("encode is not deterministic")
		}
		if _, r := CheckSECDED(word^1<<17, check); r != CorrectedSingle {
			t.Fatalf("single-bit flip: %v, want CorrectedSingle", r)
		}
		EncodeParityLine(data, parity)
	})
	if got != 0 {
		t.Errorf("SEC-DED encode+check and line parity allocate %.0f objects, want 0", got)
	}
}
