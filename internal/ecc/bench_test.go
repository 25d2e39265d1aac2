package ecc

import "testing"

// checkSink keeps the compiler from dropping the measured encode.
var checkSink uint8

func BenchmarkSECDEDEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		checkSink ^= EncodeSECDED(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkSECDEDCheckCorrect(b *testing.B) {
	word := uint64(0xdeadbeefcafebabe)
	check := EncodeSECDED(word)
	flipped := word ^ (1 << 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, r := CheckSECDED(flipped, check); r != CorrectedSingle {
			b.Fatal("unexpected result")
		}
	}
}

func BenchmarkParityLine(b *testing.B) {
	data := make([]byte, 64)
	parity := make([]byte, ParityBytesPerLine(64))
	for i := range data {
		data[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeParityLine(data, parity)
	}
}
