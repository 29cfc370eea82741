package lsf

import (
	"errors"
	"math"
	"slices"
	"testing"

	"skewsim/internal/hashing"
)

func TestPostingCodecRoundTrip(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	cases := [][]int32{
		nil,
		{0},
		{5},
		{0, 1, 2, 3},
		{1000000, 0, 999999, 1}, // out of order: deltas go negative
		{7, 7, 7, 7},            // duplicates (zero deltas)
	}
	for c := 0; c < 50; c++ {
		n := int(rng.NextBelow(300))
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(rng.NextBelow(1 << 20))
		}
		cases = append(cases, ids)
	}
	for ci, ids := range cases {
		enc := AppendPostings(nil, ids)
		if n := postingsLen(ids); n != len(enc) {
			t.Fatalf("case %d: postingsLen %d, encoding is %d bytes", ci, n, len(enc))
		}
		got, err := DecodePostings(nil, enc, len(ids), 1<<20)
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if !slices.Equal(got, ids) {
			t.Fatalf("case %d: round trip %v != %v", ci, got, ids)
		}
		// Appending onto a non-empty dst must preserve the prefix.
		prefix := []int32{42, 43}
		got2, err := DecodePostings(slices.Clone(prefix), enc, len(ids), 1<<20)
		if err != nil {
			t.Fatalf("case %d: decode with prefix: %v", ci, err)
		}
		if !slices.Equal(got2[:2], prefix) || !slices.Equal(got2[2:], ids) {
			t.Fatalf("case %d: prefix decode corrupted: %v", ci, got2)
		}
	}
}

// TestPostingCodecLenExtremes: the sizing pass agrees with the encoder
// at every varint width, up to the 5-byte deltas of the int32 extremes.
func TestPostingCodecLenExtremes(t *testing.T) {
	ids := []int32{0, 63, -64, 64, 1 << 13, -(1 << 20), 1 << 27, math.MinInt32, math.MaxInt32, 0}
	for i := range ids {
		if n, want := postingsLen(ids[:i+1]), len(AppendPostings(nil, ids[:i+1])); n != want {
			t.Fatalf("prefix %d: postingsLen %d, encoding is %d bytes", i+1, n, want)
		}
	}
}

func TestPostingCodecErrors(t *testing.T) {
	ids := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	enc := AppendPostings(nil, ids)
	fail := func(name string, src []byte, count int, maxID int32) {
		t.Helper()
		if _, err := DecodePostings(nil, src, count, maxID); !errors.Is(err, ErrPostingCodec) {
			t.Fatalf("%s: got %v, want ErrPostingCodec", name, err)
		}
	}
	fail("truncated", enc[:len(enc)-1], len(ids), 100)
	fail("trailing bytes", append(slices.Clone(enc), 0x00), len(ids), 100)
	fail("count too high", enc, len(ids)+1, 100)
	fail("count too low", enc, len(ids)-1, 100)
	fail("id out of range", enc, len(ids), 9) // max id present is 9, limit is exclusive
	// A varint continuing past 32 bits must be rejected, not wrapped.
	fail("overlong varint", []byte{0xff, 0xff, 0xff, 0xff, 0x7f}, 1, 0)
	if _, err := DecodePostings(nil, enc, len(ids), 0); err != nil {
		t.Fatalf("maxID 0 disables the range check: %v", err)
	}
}

// FuzzPostingCodec drives both directions: hostile byte strings must
// error cleanly (never panic, never allocate beyond the declared
// count), and whatever decodes must re-encode to bytes that decode to
// the same list.
func FuzzPostingCodec(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(AppendPostings(nil, []int32{0, 1, 2}), uint16(3))
	f.Add(AppendPostings(nil, []int32{1 << 20, 0, 55}), uint16(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, uint16(1))
	f.Add([]byte{0x80}, uint16(1))
	f.Fuzz(func(t *testing.T, src []byte, count16 uint16) {
		count := int(count16)
		ids, err := DecodePostings(nil, src, count, 0)
		if err != nil {
			return
		}
		if len(ids) != count {
			t.Fatalf("decoded %d ids for a declared count of %d", len(ids), count)
		}
		enc := AppendPostings(nil, ids)
		ids2, err := DecodePostings(nil, enc, count, 0)
		if err != nil {
			t.Fatalf("re-decode of re-encoded bytes failed: %v", err)
		}
		if !slices.Equal(ids, ids2) {
			t.Fatalf("re-encode round trip diverged: %v != %v", ids2, ids)
		}
	})
}

func BenchmarkPostingDecode(b *testing.B) {
	rng := hashing.NewSplitMix64(11)
	// Sorted ascending ids — the layout freeze actually produces — over
	// a dense local-id space, the best case for delta coding.
	const n = 4096
	ids := make([]int32, n)
	next := int32(0)
	for i := range ids {
		next += int32(rng.NextBelow(8))
		ids[i] = next
	}
	enc := AppendPostings(nil, ids)
	b.SetBytes(int64(n * 4))
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = DecodePostings(buf[:0], enc, n, next+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(enc))/float64(n*4), "compressed-ratio")
}
