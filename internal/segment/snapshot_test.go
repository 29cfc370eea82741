package segment

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"skewsim/internal/hashing"
)

// snapshotIndex builds the snapshot tests' index: two frozen segments
// of 32 vectors and a memtable of 10, with a tombstone in each layer
// and one on an id that never had a vector.
func snapshotIndex(tb testing.TB) (Config, *SegmentedIndex) {
	d := testDist(&testing.T{})
	cfg := Config{Params: testParams(d, 128, 2, 77), N: 128, MemtableSize: 32, MaxSegments: 100}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	for i, v := range d.SampleN(hashing.NewSplitMix64(502), 74) {
		if err := s.InsertWithID(int64(i), v); err != nil {
			tb.Fatal(err)
		}
	}
	s.WaitIdle()
	for _, id := range []int64{3, 40, 70} {
		s.Delete(id)
	}
	s.NoteDeadID(500)
	if st := s.Stats(); st.Segments != 2 || st.Memtable != 10 {
		tb.Fatalf("fixture has %d segments and %d memtable vectors, want 2 and 10", st.Segments, st.Memtable)
	}
	return cfg, s
}

// snapshotContainers returns the SKSEG1 containers a segment snapshot
// embeds, as views into snap.
func snapshotContainers(snap []byte) [][]byte {
	le := binary.LittleEndian
	off := 26
	off += 4 + 8*int(le.Uint32(snap[off:]))
	n := int(le.Uint32(snap[off:]))
	off += 4
	out := make([][]byte, n)
	for i := range out {
		l := int(le.Uint64(snap[off:]))
		out[i] = snap[off+8 : off+8+l]
		off += 8 + l
	}
	return out
}

// TestSnapshotContainerMatchesSegmentFile: a snapshot embeds each
// segment as exactly the bytes writeSegFile writes for it with plain
// postings and no dead list — one encoding of a sealed segment.
func TestSnapshotContainerMatchesSegmentFile(t *testing.T) {
	_, s := snapshotIndex(t)
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got := snapshotContainers(buf.Bytes())
	s.mu.RLock()
	segs := slices.Clone(s.segs)
	dumps := make([]segDump, len(segs))
	for i, g := range segs {
		dumps[i] = s.gatherSegLocked(g, nil)
	}
	s.mu.RUnlock()
	if len(got) != len(segs) {
		t.Fatalf("snapshot embeds %d containers for %d segments", len(got), len(segs))
	}
	dir := t.TempDir()
	for i, g := range segs {
		path, _, err := writeSegFile(dir, uint64(i+1), dumps[i], g.reps, g.bloom, false, func(string) {})
		if err != nil {
			t.Fatalf("writeSegFile: %v", err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("segment %d: snapshot container (%d bytes) differs from its segment file (%d bytes)", i, len(got[i]), len(want))
		}
	}
}

// TestSnapshotRestoresBlooms: restored segments get their bloom filters
// back, and queries consult them.
func TestSnapshotRestoresBlooms(t *testing.T) {
	cfg, s := snapshotIndex(t)
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	r, err := ReadSnapshot(&buf, cfg)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	defer r.Close()
	r.mu.RLock()
	for i, g := range r.segs {
		if g.bloom == nil {
			t.Errorf("restored segment %d has no bloom filter", i)
		}
	}
	r.mu.RUnlock()
	probes := 0
	for _, q := range testDist(t).SampleN(hashing.NewSplitMix64(503), 20) {
		_, st := r.CandidatesExt(q)
		probes += st.BloomProbes
	}
	if probes == 0 {
		t.Fatal("queries over a restored index never consulted a bloom filter")
	}
}

// TestSnapshotOfColdSegments: a snapshot taken while every segment
// serves cold from its mapped, compressed file carries plain containers
// and restores to an index that answers exactly like it.
func TestSnapshotOfColdSegments(t *testing.T) {
	data, queries := storageData(t)
	cfg := storageConfig(t, t.TempDir(), true)
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	storageOps(t, s, data)
	s.SetResidentBudget(1)
	s.WaitIdle()
	if st := s.Stats(); st.Segments < 2 || st.ColdSegments != st.Segments {
		t.Fatalf("%d of %d segments cold, want all of several", st.ColdSegments, st.Segments)
	}
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	cfg.StorageDir = ""
	r, err := ReadSnapshot(&buf, cfg)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	defer r.Close()
	r.WaitIdle()
	assertSameAnswers(t, r, s, queries)
}

// TestSnapshotRejectsTruncated: every strict prefix of a genuine
// snapshot fails to restore — a torn stream never yields a short index.
func TestSnapshotRejectsTruncated(t *testing.T) {
	cfg, s := snapshotIndex(t)
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap := buf.Bytes()
	// Every cut through the header, then an odd stride through the rest
	// so cuts land at every alignment.
	stride := (len(snap)/512 + 1) | 1
	for cut := 0; cut < len(snap); {
		if r, err := ReadSnapshot(bytes.NewReader(snap[:cut]), cfg); err == nil {
			r.Close()
			t.Fatalf("snapshot cut at %d of %d bytes restored", cut, len(snap))
		}
		if cut < 128 {
			cut++
		} else {
			cut += stride
		}
	}
}

// TestSnapshotRejectsBadMagic: a genuine snapshot whose magic alone is
// overwritten — with garbage, or with the magic of the retired lsf
// bucket dump — is refused at the magic check.
func TestSnapshotRejectsBadMagic(t *testing.T) {
	cfg, s := snapshotIndex(t)
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	for _, magic := range []string{"NOTANI", "SKLSF1"} {
		snap := bytes.Clone(buf.Bytes())
		copy(snap, magic)
		r, err := ReadSnapshot(bytes.NewReader(snap), cfg)
		if err == nil {
			r.Close()
			t.Fatalf("snapshot with magic %q restored", magic)
		}
		if !strings.Contains(err.Error(), "magic") {
			t.Fatalf("magic %q: err %v, want a magic refusal", magic, err)
		}
	}
}

// TestSnapshotRefusesOlderFormat: a stream in the earlier snapshot
// format is refused with an error that names its magic.
func TestSnapshotRefusesOlderFormat(t *testing.T) {
	cfg, _ := snapshotIndex(t)
	old := append([]byte("SKSNP1"), make([]byte, 64)...)
	_, err := ReadSnapshot(bytes.NewReader(old), cfg)
	if err == nil || !strings.Contains(err.Error(), "SKSNP1") {
		t.Fatalf("older snapshot: err %v, want a refusal naming SKSNP1", err)
	}
}

// FuzzReadSnapshot feeds arbitrary bytes into the snapshot restore: it
// must error cleanly or restore an index whose own snapshot restores to
// an index that snapshots to the same bytes. The seed corpus includes a
// genuine snapshot of two segments and a memtable, so the mutator
// explores the accepted grammar.
func FuzzReadSnapshot(f *testing.F) {
	cfg, s := snapshotIndex(f)
	var genuine bytes.Buffer
	if _, err := s.WriteSnapshot(&genuine); err != nil {
		f.Fatal(err)
	}
	f.Add(genuine.Bytes())
	f.Add(genuine.Bytes()[:genuine.Len()/2])
	f.Add(append([]byte(nil), snapMagic[:]...))
	f.Add(append(append([]byte(nil), snapMagic[:]...), make([]byte, 64)...))
	f.Add([]byte("not a snapshot"))
	cfg.MemtableSize = 1 << 20 // nothing rotates, so a restore keeps its layout
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := ReadSnapshot(bytes.NewReader(in), cfg)
		if err != nil {
			return
		}
		defer r.Close()
		var a, b bytes.Buffer
		if _, err := r.WriteSnapshot(&a); err != nil {
			t.Fatalf("re-snapshot: %v", err)
		}
		r2, err := ReadSnapshot(bytes.NewReader(a.Bytes()), cfg)
		if err != nil {
			t.Fatalf("re-snapshot rejected: %v", err)
		}
		defer r2.Close()
		if _, err := r2.WriteSnapshot(&b); err != nil {
			t.Fatalf("second re-snapshot: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("snapshot not stable: %d vs %d bytes", a.Len(), b.Len())
		}
	})
}

// TestSnapshotRejectsWrongContainerLength: a container length prefix
// that disagrees with the container's own checksummed header — a few
// bytes off either way, or a huge one — is refused, and the huge one
// before its buffer is allocated.
func TestSnapshotRejectsWrongContainerLength(t *testing.T) {
	cfg, s := snapshotIndex(t)
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	at := bytes.Index(buf.Bytes(), snapshotContainers(buf.Bytes())[0]) - 8 // its length prefix
	le := binary.LittleEndian
	genuine := le.Uint64(buf.Bytes()[at:])
	for _, n := range []uint64{genuine - 8, genuine + 8, 1 << 39} {
		snap := bytes.Clone(buf.Bytes())
		le.PutUint64(snap[at:], n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := ReadSnapshot(bytes.NewReader(snap), cfg)
		runtime.ReadMemStats(&after)
		if err == nil {
			r.Close()
			t.Fatalf("container length %d (genuine %d) restored", n, genuine)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("container length %d: %d bytes allocated before the refusal", n, grew)
		}
	}
}
