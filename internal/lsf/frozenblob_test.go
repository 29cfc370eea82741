package lsf

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"skewsim/internal/bitvec"
)

// frozenBytes is ix's WriteFrozen encoding, collected in memory.
func frozenBytes(t testing.TB, ix *Index, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteFrozen(&buf, compress)
	if err != nil {
		t.Fatalf("WriteFrozen(compress=%v): %v", compress, err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteFrozen(compress=%v) reported %d bytes, wrote %d", compress, n, buf.Len())
	}
	return buf.Bytes()
}

// openFrozenVariants reopens ix through every WriteFrozen ×
// OpenFrozenBytes combination the storage layer uses: resident
// (heap-decoded) and zero-copy, each over uncompressed and compressed
// posting encodings.
func openFrozenVariants(t *testing.T, ix *Index, e *Engine, data []bitvec.Vector) map[string]*Index {
	t.Helper()
	out := map[string]*Index{"original": ix}
	for _, compress := range []bool{false, true} {
		blob := frozenBytes(t, ix, compress)
		for _, zeroCopy := range []bool{false, true} {
			name := "heap"
			if zeroCopy {
				name = "zerocopy"
			}
			if compress {
				name += "+compressed"
			}
			rix, err := OpenFrozenBytes(blob, e, data, zeroCopy)
			if err != nil {
				t.Fatalf("%s: open: %v", name, err)
			}
			out[name] = rix
		}
	}
	return out
}

// TestFrozenBlobDifferential: every reopened variant of a frozen blob
// must behave bit-identically to the index it encoded — same stats,
// same candidate streams in the same order, same query answers — for
// randomized workloads. This is the zero-copy path's correctness
// anchor: the unsafe views and the decode-on-read cold postings have
// no behavior of their own to test, only equivalence.
func TestFrozenBlobDifferential(t *testing.T) {
	m := bitvec.BraunBlanquetMeasure
	for seed := uint64(20); seed <= 24; seed++ {
		e, data, queries := differentialWorkload(t, seed)
		ix, err := BuildIndex(e, data)
		if err != nil {
			t.Fatal(err)
		}
		want := ix.Stats()
		for name, rix := range openFrozenVariants(t, ix, e, data) {
			if got := rix.Stats(); got != want {
				t.Fatalf("seed %d %s: stats %+v, original %+v", seed, name, got, want)
			}
			for k, q := range queries {
				wantIDs, wantStats := ix.CandidateIDs(q)
				gotIDs, gotStats := rix.CandidateIDs(q)
				if gotStats != wantStats || len(gotIDs) != len(wantIDs) {
					t.Fatalf("seed %d %s query %d: candidates %d (%+v), original %d (%+v)",
						seed, name, k, len(gotIDs), gotStats, len(wantIDs), wantStats)
				}
				for i := range gotIDs {
					if gotIDs[i] != wantIDs[i] {
						t.Fatalf("seed %d %s query %d: candidate order diverged at %d: %d vs %d",
							seed, name, k, i, gotIDs[i], wantIDs[i])
					}
				}
				wID, wSim, _, wFound := ix.QueryBest(q, m)
				gID, gSim, _, gFound := rix.QueryBest(q, m)
				if gID != wID || gSim != wSim || gFound != wFound {
					t.Fatalf("seed %d %s query %d: QueryBest (%d, %v, %v), original (%d, %v, %v)",
						seed, name, k, gID, gSim, gFound, wID, wSim, wFound)
				}
			}
			// The bucket dump (serialization, compaction's merge source)
			// must also be identical, cold or not.
			var a, b bytes.Buffer
			if _, err := ix.WriteTo(&a); err != nil {
				t.Fatal(err)
			}
			if _, err := rix.WriteTo(&b); err != nil {
				t.Fatalf("seed %d %s: WriteTo: %v", seed, name, err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("seed %d %s: bucket dump diverged (%d vs %d bytes)", seed, name, a.Len(), b.Len())
			}
		}
	}
}

// TestFrozenBlobColdReencode: a cold (compressed, zero-copy) index must
// itself re-encode into valid blobs — the compaction-of-cold-segments
// path streams through the decoder.
func TestFrozenBlobColdReencode(t *testing.T) {
	e, data, queries := differentialWorkload(t, 30)
	ix, err := BuildIndex(e, data)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := OpenFrozenBytes(frozenBytes(t, ix, true), e, data, true)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.ColdPostings() {
		t.Fatal("zero-copy compressed open is not cold")
	}
	for _, compress := range []bool{false, true} {
		blob := frozenBytes(t, cold, compress)
		if !bytes.Equal(blob, frozenBytes(t, ix, compress)) {
			t.Fatalf("re-encode compress=%v: bytes differ from the resident source's", compress)
		}
		rix, err := OpenFrozenBytes(blob, e, data, false)
		if err != nil {
			t.Fatalf("re-encode compress=%v: %v", compress, err)
		}
		for k, q := range queries {
			wantIDs, _ := ix.CandidateIDs(q)
			gotIDs, _ := rix.CandidateIDs(q)
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("compress=%v query %d: %d candidates, original %d", compress, k, len(gotIDs), len(wantIDs))
			}
			for i := range gotIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("compress=%v query %d: diverged at %d", compress, k, i)
				}
			}
		}
	}
}

// TestFrozenBlobPortableEncode forces the portable encode path — the
// one a big-endian host takes, converting word by word through the
// scratch buffer instead of writing arenas from their backing arrays.
// Its bytes must equal the direct path's, from a resident and from a
// cold source, and OpenFrozenBytes must round-trip them (with the flag
// down it heap-decodes, as a big-endian host would).
func TestFrozenBlobPortableEncode(t *testing.T) {
	e, data, queries := differentialWorkload(t, 32)
	ix, err := BuildIndex(e, data)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := OpenFrozenBytes(frozenBytes(t, ix, true), e, data, true)
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool][]byte{false: frozenBytes(t, ix, false), true: frozenBytes(t, ix, true)}
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	for _, compress := range []bool{false, true} {
		for name, src := range map[string]*Index{"resident": ix, "cold": cold} {
			blob := frozenBytes(t, src, compress)
			if !bytes.Equal(blob, want[compress]) {
				t.Fatalf("%s compress=%v: portable encoding differs from the direct one", name, compress)
			}
			for _, zeroCopy := range []bool{false, true} {
				rix, err := OpenFrozenBytes(blob, e, data, zeroCopy)
				if err != nil {
					t.Fatalf("%s compress=%v zeroCopy=%v: open: %v", name, compress, zeroCopy, err)
				}
				if got := rix.Stats(); got != ix.Stats() {
					t.Fatalf("%s compress=%v: stats %+v, original %+v", name, compress, got, ix.Stats())
				}
				for k, q := range queries {
					wantIDs, _ := ix.CandidateIDs(q)
					gotIDs, _ := rix.CandidateIDs(q)
					if !slices.Equal(gotIDs, wantIDs) {
						t.Fatalf("%s compress=%v query %d: candidates diverged", name, compress, k)
					}
				}
			}
		}
	}
}

// TestFrozenBlobRejectsCorruption: every truncation must be rejected,
// and single-byte flips must either be rejected or open into an index
// that does not crash under traversal (CRC catches flips in the real
// container; this layer only guarantees structural safety).
func TestFrozenBlobRejectsCorruption(t *testing.T) {
	e, data, queries := differentialWorkload(t, 31)
	ix, err := BuildIndex(e, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		blob := frozenBytes(t, ix, compress)
		// Every cut in the header and first sections, then a bounded odd
		// stride across the rest (odd so cuts land at every alignment) —
		// full per-byte sweeps of a several-hundred-KB blob are minutes
		// under the race detector for no added structural coverage.
		cutStride := (len(blob)/1024 + 1) | 1
		cut := 0
		for cut < len(blob) {
			if _, err := OpenFrozenBytes(blob[:cut], e, data, false); !errors.Is(err, ErrFrozenBlob) && !errors.Is(err, ErrPostingCodec) {
				t.Fatalf("compress=%v truncation at %d accepted (err=%v)", compress, cut, err)
			}
			if cut < 96 {
				cut++
			} else {
				cut += cutStride
			}
		}
		flipStride := (len(blob)/512 + 1) | 1
		for off := 0; off < len(blob); off += flipStride {
			mut := bytes.Clone(blob)
			mut[off] ^= 0x5a
			for _, zeroCopy := range []bool{false, true} {
				rix, err := OpenFrozenBytes(mut, e, data, zeroCopy)
				if err != nil {
					continue
				}
				// Accepted: must traverse without panicking.
				for _, q := range queries[:5] {
					rix.CandidateIDs(q)
				}
			}
		}
	}
}
