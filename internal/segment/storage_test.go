package segment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/hashing"
	"skewsim/internal/lsf"
	"skewsim/internal/mmapio"
	"skewsim/internal/obs"
	"skewsim/internal/verify"
)

// Differential storage suite: an index reopened from its SKSEG1 files —
// through the zero-copy mmap path, the heap-decoded resident path, and
// both posting encodings — must answer every query entry point
// bit-identically to the index that wrote them.

var allMeasures = []bitvec.Measure{
	bitvec.BraunBlanquetMeasure,
	bitvec.JaccardMeasure,
	bitvec.DiceMeasure,
	bitvec.OverlapMeasure,
	bitvec.CosineMeasure,
}

// storageOps drives a deterministic insert/delete workload with
// explicit ids and periodic flushes, so both the storage-backed index
// and its in-memory reference cut several frozen segments (and, with a
// small MaxSegments, compact) with tombstones interleaved throughout.
// The final flush freezes the tail so everything — the trailing
// deletes' tombstone snapshot included — reaches the segment files.
func storageOps(t *testing.T, s *SegmentedIndex, data []bitvec.Vector) {
	t.Helper()
	for i, v := range data {
		if err := s.InsertWithID(int64(i), v); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%6 == 5 {
			if !s.Delete(int64(i - 3)) {
				t.Fatalf("Delete(%d) reported not live", i-3)
			}
		}
		if i%90 == 89 {
			s.Flush()
		}
	}
	s.Flush()
	s.WaitIdle()
}

// assertSameAnswers checks every query entry point across all five
// measures: Query (first passing match), QueryBest, TopK, and
// SearchBatch in both threshold and best-match modes.
func assertSameAnswers(t *testing.T, got, want *SegmentedIndex, queries []bitvec.Vector) {
	t.Helper()
	for _, m := range allMeasures {
		for qi, q := range queries {
			wm, _, wok := want.Query(q, 0.4, m)
			gm, _, gok := got.Query(q, 0.4, m)
			if gm != wm || gok != wok {
				t.Fatalf("measure %v query %d: Query (%+v, %v), reference (%+v, %v)", m, qi, gm, gok, wm, wok)
			}
			wm, _, wok = want.QueryBest(q, m)
			gm, _, gok = got.QueryBest(q, m)
			if gm != wm || gok != wok {
				t.Fatalf("measure %v query %d: QueryBest (%+v, %v), reference (%+v, %v)", m, qi, gm, gok, wm, wok)
			}
			wk, _ := want.TopK(q, 8, m)
			gk, _ := got.TopK(q, 8, m)
			if !slices.Equal(gk, wk) {
				t.Fatalf("measure %v query %d: TopK\n got %v\nwant %v", m, qi, gk, wk)
			}
		}
		sess := make([]*verify.Session, len(queries))
		for k, q := range queries {
			sess[k] = verify.Acquire(m, q)
		}
		thresholds := make([]float64, len(queries))
		for k := range thresholds {
			thresholds[k] = 0.4
		}
		for _, th := range [][]float64{nil, thresholds} {
			wr, _ := want.SearchBatch(sess, th)
			gr, _ := got.SearchBatch(sess, th)
			if !slices.Equal(gr, wr) {
				t.Fatalf("measure %v thresholds=%v: SearchBatch\n got %v\nwant %v", m, th != nil, gr, wr)
			}
		}
		for _, ses := range sess {
			verify.Release(ses)
		}
	}
}

const (
	storageN    = 420
	storageReps = 3
)

func storageConfig(t *testing.T, dir string, compress bool) Config {
	t.Helper()
	return Config{
		Params:           testParams(t, testDist(t), storageN, storageReps, 77),
		N:                storageN,
		MemtableSize:     48,
		MaxSegments:      3, // compaction interleaves with the workload
		StorageDir:       dir,
		CompressPostings: compress,
	}
}

func storageData(t *testing.T) ([]bitvec.Vector, []bitvec.Vector) {
	t.Helper()
	d := testDist(t)
	return d.SampleN(hashing.NewSplitMix64(501), storageN),
		d.SampleN(hashing.NewSplitMix64(777), 50)
}

func TestStorageDifferential(t *testing.T) {
	data, queries := storageData(t)
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			s1, err := Open(storageConfig(t, dir, compress))
			if err != nil {
				t.Fatalf("Open(empty): %v", err)
			}
			defer s1.Close()
			storageOps(t, s1, data)
			if st := s1.Stats(); st.Segments < 2 {
				t.Fatalf("workload produced %d segments; need several", st.Segments)
			}

			for _, tier := range []struct {
				name   string
				budget int64
			}{
				{"cold-mmap", 1},     // everything demoted: zero-copy serving
				{"resident-heap", 0}, // everything promoted: heap decode
			} {
				t.Run(tier.name, func(t *testing.T) {
					cfg := storageConfig(t, dir, compress)
					cfg.ResidentBytes = tier.budget
					s2, err := Open(cfg)
					if err != nil {
						t.Fatalf("Open(reload): %v", err)
					}
					defer s2.Close()
					s2.WaitIdle() // tier moves settle
					st := s2.Stats()
					if tier.budget == 1 && st.ColdSegments != st.Segments {
						t.Fatalf("budget 1: %d of %d segments cold", st.ColdSegments, st.Segments)
					}
					if tier.budget == 0 && st.ColdSegments != 0 {
						t.Fatalf("budget 0: %d segments still cold", st.ColdSegments)
					}
					assertEquivalent(t, s2, s1, queries)
					assertSameAnswers(t, s2, s1, queries)
				})
			}
		})
	}
}

// TestStorageCheckpointMetrics: the checkpoint instruments see every
// segment file written, freezes and compaction outputs alike — one
// duration each, and bytes_total equal to the files' summed sizes
// (taken from the synced temp file, since compaction deletes its
// inputs' files later).
func TestStorageCheckpointMetrics(t *testing.T) {
	data, _ := storageData(t)
	dir := t.TempDir()
	cfg := storageConfig(t, dir, true)
	cfg.Metrics = NewMetrics(obs.NewRegistry())
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var files, written int64
	s.crashHook = func(point string) {
		if point != "storage-tmp" {
			return
		}
		tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if len(tmps) != 1 {
			t.Errorf("%d temp files at rename time, want 1", len(tmps))
			return
		}
		fi, err := os.Stat(tmps[0])
		if err != nil {
			t.Error(err)
			return
		}
		files++
		written += fi.Size()
	}
	storageOps(t, s, data)
	if st := s.Stats(); st.Compactions == 0 || st.Freezes == 0 {
		t.Fatalf("workload must both freeze and compact: %+v", st)
	}
	m := cfg.Metrics
	if got := m.CheckpointSeconds.Count(); got != files {
		t.Fatalf("checkpoint_seconds observed %d files, %d were written", got, files)
	}
	if got := m.CheckpointBytes.Value(); got != written || got == 0 {
		t.Fatalf("checkpoint_bytes_total = %d, files written total %d bytes", got, written)
	}
}

// TestStorageCheckpointBoundedAlloc: persisting the checkpoint
// benchmark's segment (a 40 MiB plain file) costs at most 5 MiB of
// heap — the 2 MiB chunk and small change, not copies of the segment.
func TestStorageCheckpointBoundedAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1024-vector, 6-repetition segment")
	}
	_, seg, dump := checkpointSegment(t)
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, size, err := writeSegFile(dir, 1, dump, seg.reps, seg.bloom, false, func(string) {})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 5 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Fatalf("writing a %d-byte segment file allocated %d bytes, bound %d", size, alloc, bound)
	}
}

// TestStorageResidentBudget is the beyond-RAM acceptance: with a budget
// a quarter of the total arena footprint, the resident gauge must stay
// under budget while every answer stays exact; restoring an unlimited
// budget must promote everything back, again without drift.
func TestStorageResidentBudget(t *testing.T) {
	data, queries := storageData(t)
	dir := t.TempDir()
	cfg := storageConfig(t, dir, true)
	cfg.MaxSegments = 100 // keep many segments so tiering has granularity
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storageOps(t, s, data)

	// The reference must segment identically (first-match Query depends
	// on segment order): same config, no compaction in either (the
	// MaxSegments headroom), no storage, no budget.
	refCfg := cfg
	refCfg.StorageDir = ""
	refCfg.CompressPostings = false
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	storageOps(t, ref, data)

	total := s.Stats().ResidentBytes
	if total == 0 {
		t.Fatal("no resident arena bytes to budget")
	}
	budget := total / 4 // dataset is 4x the resident budget
	s.SetResidentBudget(budget)
	s.WaitIdle()
	st := s.Stats()
	if st.ResidentBytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.ResidentBytes, budget)
	}
	if st.ColdSegments == 0 {
		t.Fatalf("budget %d of %d left no segment cold: %+v", budget, total, st)
	}
	assertEquivalent(t, s, ref, queries)
	assertSameAnswers(t, s, ref, queries)

	s.SetResidentBudget(0)
	s.WaitIdle()
	if st := s.Stats(); st.ColdSegments != 0 || st.ResidentBytes != total {
		t.Fatalf("unlimited budget did not promote back: %+v (want %d resident bytes)", st, total)
	}
	assertEquivalent(t, s, ref, queries)
}

// TestStorageColdCompaction is the regression test for compacting
// segments whose arenas are not heap-resident: merging two cold
// (mmap-backed, possibly compressed) segments must produce exactly the
// merge of their resident forms — the merge streams bucket posting
// lists through the decoder instead of assuming arena views.
func TestStorageColdCompaction(t *testing.T) {
	data, _ := storageData(t)
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			cfg := storageConfig(t, dir, compress)
			cfg.MaxSegments = 100 // no background compaction: this test merges by hand
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			storageOps(t, s, data)

			s.mu.RLock()
			if len(s.segs) < 2 {
				s.mu.RUnlock()
				t.Fatalf("need two segments, have %d", len(s.segs))
			}
			a, b := s.segs[0], s.segs[1]
			s.mu.RUnlock()

			mergedResident := s.mergeSegments(a, b)

			s.SetResidentBudget(1)
			s.WaitIdle()
			if st := s.Stats(); st.ColdSegments != st.Segments {
				t.Fatalf("budget 1 left %d of %d segments resident", st.Segments-st.ColdSegments, st.Segments)
			}
			mergedCold := s.mergeSegments(a, b)

			if !slices.Equal(mergedResident.slots, mergedCold.slots) {
				t.Fatalf("merged slot sets differ: %v vs %v", mergedResident.slots, mergedCold.slots)
			}
			for r := range mergedResident.reps {
				var w, g bytes.Buffer
				if _, err := mergedResident.reps[r].WriteTo(&w); err != nil {
					t.Fatal(err)
				}
				if _, err := mergedCold.reps[r].WriteTo(&g); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(w.Bytes(), g.Bytes()) {
					t.Fatalf("repetition %d: cold merge diverged from resident merge (%d vs %d bytes)",
						r, w.Len(), g.Len())
				}
			}
		})
	}
}

// TestStorageEndToEndColdCompaction runs the whole machine at once:
// tiny budget, aggressive compaction, compressed postings — so the
// background worker demotes, promotes, merges cold inputs, and unmaps
// their files while the workload runs. The answers must still be exact
// and no stale file may survive.
func TestStorageEndToEndColdCompaction(t *testing.T) {
	data, queries := storageData(t)
	dir := t.TempDir()
	cfg := storageConfig(t, dir, true)
	cfg.MaxSegments = 2
	cfg.ResidentBytes = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storageOps(t, s, data)

	ref, err := New(storageConfig(t, t.TempDir(), false))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	storageOps(t, ref, data)

	assertEquivalent(t, s, ref, queries)

	// Exactly one .seg file per live segment — compaction removed its
	// inputs' files — and no torn temporaries.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range ents {
		name := e.Name()
		if filepath.Ext(name) == ".tmp" {
			t.Fatalf("orphaned temp file %s", name)
		}
		if len(name) > len(ckptPrefix) && name[:len(ckptPrefix)] == ckptPrefix {
			segFiles++
		}
	}
	if want := s.Stats().Segments; segFiles != want {
		t.Fatalf("%d segment files on disk for %d live segments", segFiles, want)
	}
}

// TestTierRaceQueries hammers queries while the worker demotes and
// promotes the same segments — the swap-under-write-lock discipline is
// what the race detector checks here.
func TestTierRaceQueries(t *testing.T) {
	data, queries := storageData(t)
	dir := t.TempDir()
	cfg := storageConfig(t, dir, true)
	cfg.MaxSegments = 100
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storageOps(t, s, data)
	want := make([]Match, len(queries))
	for qi, q := range queries {
		want[qi], _, _ = s.QueryBest(q, bitvec.BraunBlanquetMeasure)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qi := (i*3 + w) % len(queries)
				got, _, _ := s.QueryBest(queries[qi], bitvec.BraunBlanquetMeasure)
				if got != want[qi] {
					t.Errorf("query %d diverged under tiering: %+v != %+v", qi, got, want[qi])
					return
				}
			}
		}(w)
	}
	for i := 0; i < 12; i++ {
		s.SetResidentBudget(int64(1 + (i%2)*int(^uint(0)>>1)))
		s.WaitIdle()
	}
	close(done)
	wg.Wait()
}

// FuzzSegmentHeader feeds arbitrary bytes into the SKSEG1 parser: it
// must error cleanly or produce a structurally valid container, never
// panic or allocate unboundedly. The seed corpus includes a genuine
// file so the mutator explores the accepted grammar.
func FuzzSegmentHeader(f *testing.F) {
	dir := f.TempDir()
	data, _ := func() ([]bitvec.Vector, []bitvec.Vector) {
		d := testDist(&testing.T{})
		return d.SampleN(hashing.NewSplitMix64(501), 64), nil
	}()
	params := testParams(&testing.T{}, testDist(&testing.T{}), 64, 2, 77)
	s, err := Open(Config{Params: params, N: 64, MemtableSize: 1 << 20, MaxSegments: 100, StorageDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for i, v := range data {
		if err := s.InsertWithID(int64(i), v); err != nil {
			f.Fatal(err)
		}
	}
	s.Delete(3)
	s.Flush()
	s.WaitIdle()
	s.Close()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		f.Fatalf("no segment file written (%v)", err)
	}
	genuine, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add(genuine[:len(genuine)/2])
	f.Add([]byte("SKSEG1"))
	f.Add(append([]byte("SKSEG1"), make([]byte, 64)...))
	f.Add([]byte("not a segment"))

	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := parseSegContainer(in, 0, true)
		if err != nil {
			return
		}
		// Accepted: the container must be internally consistent.
		if len(c.vecs) != len(c.exts) {
			t.Fatalf("%d vectors for %d ids", len(c.vecs), len(c.exts))
		}
		if c.bloom == nil || len(c.repBlobs) == 0 {
			t.Fatal("accepted container missing sections")
		}
		for _, blob := range c.repBlobs {
			// The lsf blob parser must hold the same no-panic bar.
			if _, err := lsf.OpenFrozenBytes(blob, nil, c.vecs, false); err != nil {
				continue
			}
		}
	})
}

// TestBloomFilterScreening: on a multi-segment index, queries must
// consult the per-segment filters and skip a meaningful share of
// probes; a filter can only skip, never change an answer, which the
// differential tests above establish — here the counters prove it is
// actually in the path.
func TestBloomFilterScreening(t *testing.T) {
	data, queries := storageData(t)
	cfg := storageConfig(t, t.TempDir(), false)
	cfg.MaxSegments = 100
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storageOps(t, s, data)
	var probes, skips int
	for _, q := range queries {
		_, st, _ := s.QueryBest(q, bitvec.BraunBlanquetMeasure)
		probes += st.BloomProbes
		skips += st.BloomSkips
	}
	if probes == 0 {
		t.Fatal("no bloom probes recorded on a multi-segment index")
	}
	if skips == 0 || skips > probes {
		t.Fatalf("bloom skipped %d of %d probes", skips, probes)
	}
	sess := []*verify.Session{verify.Acquire(bitvec.BraunBlanquetMeasure, queries[0])}
	defer verify.Release(sess[0])
	_, bst := s.SearchBatch(sess, nil)
	if bst.BloomProbes == 0 {
		t.Fatal("batch path records no bloom probes")
	}
}

func TestBloomFilterUnit(t *testing.T) {
	rng := hashing.NewSplitMix64(9)
	f := newBloomFilter(1000)
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = rng.Next()
		f.add(keys[i])
	}
	for _, k := range keys {
		if !f.mayContain(k) {
			t.Fatalf("false negative for %x", k)
		}
	}
	fp := 0
	const misses = 20000
	for i := 0; i < misses; i++ {
		if f.mayContain(rng.Next()) {
			fp++
		}
	}
	// ~0.1% expected at 12 bits/key; 1% is far beyond any plausible
	// statistical wobble and means the hashing is broken.
	if fp > misses/100 {
		t.Fatalf("%d false positives in %d lookups", fp, misses)
	}
}

// BenchmarkSegfileOpen measures bringing one cold segment online —
// map the file, verify every checksum, open the per-repetition blobs —
// through both posting encodings and both open modes: `mmap` is the
// demotion path (zero-copy views into the mapping), `heap` is the
// promotion path (full arena decode). The file-bytes metric is the
// on-disk footprint the encoding flag trades against that decode cost.
func BenchmarkSegfileOpen(b *testing.B) {
	d := testDist(&testing.T{})
	const n = 4096
	params := testParams(&testing.T{}, d, n, 3, 77)
	data := d.SampleN(hashing.NewSplitMix64(3), n)
	for _, compress := range []bool{false, true} {
		dir := b.TempDir()
		s, err := Open(Config{Params: params, N: n, MemtableSize: 1 << 20,
			MaxSegments: 100, StorageDir: dir, CompressPostings: compress})
		if err != nil {
			b.Fatal(err)
		}
		for i, v := range data {
			if err := s.InsertWithID(int64(i), v); err != nil {
				b.Fatal(err)
			}
		}
		s.Flush()
		s.WaitIdle()
		engines := s.eng.reps
		s.Close()
		ents, _ := os.ReadDir(dir)
		if len(ents) != 1 {
			b.Fatalf("expected one segment file, found %d", len(ents))
		}
		path := filepath.Join(dir, ents[0].Name())
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		enc := "plain"
		if compress {
			enc = "compressed"
		}
		for _, zeroCopy := range []bool{true, false} {
			mode := "mmap"
			if !zeroCopy {
				mode = "heap"
			}
			b.Run(enc+"/"+mode, func(b *testing.B) {
				b.ReportMetric(float64(fi.Size()), "file-bytes")
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := mmapio.Open(path)
					if err != nil {
						b.Fatal(err)
					}
					c, err := parseSegContainer(m.Data(), len(engines), true)
					if err != nil {
						b.Fatal(err)
					}
					for r, blob := range c.repBlobs {
						if _, err := lsf.OpenFrozenBytes(blob, engines[r], c.vecs, zeroCopy); err != nil {
							b.Fatal(err)
						}
					}
					m.Close()
				}
			})
		}
	}
}

// BenchmarkBloomSkip prices the filter consultation that replaces a
// key-table probe on the (common) segment-miss path.
func BenchmarkBloomSkip(b *testing.B) {
	rng := hashing.NewSplitMix64(5)
	f := newBloomFilter(1 << 14)
	for i := 0; i < 1<<14; i++ {
		f.add(rng.Next())
	}
	probes := make([]uint64, 1024)
	for i := range probes {
		probes[i] = rng.Next() // almost all misses
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if f.mayContain(probes[i%len(probes)]) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit-rate")
}
