package lsf

import (
	"bytes"
	"testing"

	"skewsim/internal/bitvec"
)

func fuzzEngine(t testing.TB, n int) *Engine {
	probs := make([]float64, 32)
	for i := range probs {
		probs[i] = 0.5 / float64(i+1)
	}
	eng, err := NewEngine(n, Params{
		Seed:      12345,
		Probs:     probs,
		Threshold: func(_ bitvec.Vector, j int, _ uint32) float64 { return 1.0 / float64(2+j) },
		Stop:      ProductStopRule(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// FuzzSerializeRoundTrip drives the write side: fuzzed dataset shapes
// build an index whose frozen encoding, in either posting format, must
// reopen into an index that encodes to identical bytes.
func FuzzSerializeRoundTrip(f *testing.F) {
	f.Add(uint16(8), uint32(3))
	f.Add(uint16(64), uint32(17))
	f.Add(uint16(1), uint32(0))
	f.Fuzz(func(t *testing.T, size uint16, salt uint32) {
		n := int(size%256) + 1
		eng := fuzzEngine(t, n)
		data := make([]bitvec.Vector, n)
		for i := range data {
			a := uint32(i) % 29
			b := (uint32(i) + salt) % 31
			if b == a {
				b = (b + 1) % 31
			}
			data[i] = bitvec.New(a, b)
		}
		ix, err := BuildIndex(eng, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, compress := range []bool{false, true} {
			blob := frozenBytes(t, ix, compress)
			for _, zeroCopy := range []bool{false, true} {
				rix, err := OpenFrozenBytes(blob, eng, data, zeroCopy)
				if err != nil {
					t.Fatalf("compress=%v zeroCopy=%v: genuine blob rejected: %v", compress, zeroCopy, err)
				}
				if !bytes.Equal(blob, frozenBytes(t, rix, compress)) {
					t.Fatalf("compress=%v zeroCopy=%v: round trip not byte-identical", compress, zeroCopy)
				}
			}
		}
	})
}
