package segment

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"skewsim/internal/faultinject"
	"skewsim/internal/hashing"
	"skewsim/internal/lsf"
)

// TestMemtableKeyCollisions folds every bucket key to 64 values, so most
// paths share their key with others, and checks the candidate set of
// every query against a static build (which keys on the full hash) in
// each state a posting passes through: the active memtable, the
// flushing list while its freeze is held in flight, the frozen segment,
// and the compacted segment.
func TestMemtableKeyCollisions(t *testing.T) {
	prev := hashPath
	hashPath = func(path []uint32) uint64 { return lsf.HashPath(path) & 63 }
	t.Cleanup(func() { hashPath = prev })

	const n = 300
	d := testDist(t)
	params := testParams(t, d, n, 3, 61)
	s, err := New(Config{Params: params, N: n, MemtableSize: n, MaxSegments: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	rng := hashing.NewSplitMix64(62)
	data := d.SampleN(rng, n+n/2)
	qs := append(d.SampleN(rng, 40), data[0], data[n-1], data[n])

	check := func(stage string, live int) {
		t.Helper()
		static := buildStatic(t, params, n, data[:live])
		for qi, q := range qs {
			want := static.candidates(q)
			got, _ := s.CandidatesExt(q)
			slices.Sort(got)
			wantExt := make([]int64, len(want))
			for i, id := range want {
				wantExt[i] = int64(id) // auto ids are insertion positions
			}
			slices.Sort(wantExt)
			if !slices.Equal(got, wantExt) {
				t.Fatalf("%s: query %d: candidates %v, want %v", stage, qi, got, wantExt)
			}
		}
	}

	for _, v := range data[:n-1] {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	check("active", n-1)

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before Close, which waits for the worker
	restore := faultinject.Set(faultinject.SegmentSlowFreeze, func(...any) error {
		entered <- struct{}{}
		<-release
		return nil
	})
	defer restore()
	if _, err := s.Insert(data[n-1]); err != nil { // fills and rotates the memtable
		t.Fatal(err)
	}
	<-entered
	if st := s.Stats(); st.Flushing != n || st.Segments != 0 {
		t.Fatalf("want the memtable held in the flushing list, got %+v", st)
	}
	check("flushing", n)
	unblock()
	s.WaitIdle()
	restore()
	if st := s.Stats(); st.Segments != 1 || st.Flushing != 0 {
		t.Fatalf("want one frozen segment, got %+v", st)
	}
	check("frozen", n)

	for _, v := range data[n:] {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	s.WaitIdle()
	if st := s.Stats(); st.Segments != 1 || st.Compactions != 1 {
		t.Fatalf("want the two segments compacted into one, got %+v", st)
	}
	check("compacted", len(data))
}

// segmentBlobs encodes every repetition of every frozen segment, plus
// its slot list and bloom filter, for byte comparison.
func segmentBlobs(segs ...*frozenSeg) [][]byte {
	var out [][]byte
	for _, g := range segs {
		var b []byte
		for _, slot := range g.slots {
			b = append(b, byte(slot), byte(slot>>8), byte(slot>>16), byte(slot>>24))
		}
		for _, w := range g.bloom.words {
			for i := 0; i < 64; i += 8 {
				b = append(b, byte(w>>i))
			}
		}
		buf := bytes.NewBuffer(b)
		for _, ix := range g.reps {
			if _, err := ix.WriteFrozen(buf, false); err != nil {
				panic(err) // a bytes.Buffer write cannot fail
			}
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestFreezeDeterministic: two indexes fed identical inserts and deletes
// freeze to byte-identical segments, and compact them to byte-identical
// merges. Bucket order is first sight in the memtable, so nothing in a
// segment depends on map iteration or timing.
func TestFreezeDeterministic(t *testing.T) {
	const n = 400
	d := testDist(t)
	params := testParams(t, d, n, 3, 71)
	data := d.SampleN(hashing.NewSplitMix64(72), n)
	build := func() (frozen, merged [][]byte) {
		s, err := New(Config{Params: params, N: n, MemtableSize: 96, MaxSegments: 100})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(s.Close)
		for i, v := range data {
			if _, err := s.Insert(v); err != nil {
				t.Fatal(err)
			}
			if i%7 == 3 {
				s.Delete(int64(i - 2))
			}
		}
		s.Flush()
		s.WaitIdle()
		s.mu.RLock()
		segs := slices.Clone(s.segs)
		s.mu.RUnlock()
		if len(segs) < 4 {
			t.Fatalf("want >= 4 frozen segments, got %d", len(segs))
		}
		return segmentBlobs(segs...), segmentBlobs(s.mergeSegments(segs[0], segs[2]))
	}
	frozenA, mergedA := build()
	frozenB, mergedB := build()
	for i := range frozenA {
		if !bytes.Equal(frozenA[i], frozenB[i]) {
			t.Fatalf("segment %d froze to different bytes in two identical indexes", i)
		}
	}
	if !bytes.Equal(mergedA[0], mergedB[0]) {
		t.Fatal("compaction merged to different bytes in two identical indexes")
	}
}

// TestMemtableInsertAllocs pins the amortized allocations of an Insert
// into the active memtable: the live builders grow flat arenas, so the
// steady state allocates nothing per posting or bucket.
func TestMemtableInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 1024
	d := testDist(t)
	params := testParams(t, d, n, 4, 81)
	s, err := New(Config{Params: params, N: n, MemtableSize: 1 << 20})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	data := d.SampleN(hashing.NewSplitMix64(82), 2*n)
	for _, v := range data[:n] {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	i := n
	allocs := testing.AllocsPerRun(n-1, func() {
		if _, err := s.Insert(data[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if st := s.Stats(); st.Memtable != 2*n || st.Segments != 0 {
		t.Fatalf("inserts left the active memtable: %+v", st)
	}
	if allocs > 4 {
		t.Fatalf("Insert into the active memtable: %.2f allocs/op amortized, want <= 4", allocs)
	}
	t.Logf("%.2f allocs per Insert", allocs)
}
