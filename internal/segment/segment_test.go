package segment

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/join"
	"skewsim/internal/lsf"
)

// testParams builds the paper's adversarial engine parameters at
// b1 = 0.5 the way a serving deployment would, with a fixed expected
// size, so the segmented index and the static comparator run identical
// filter mappings.
func testParams(d *dist.Product, n, reps int, seed uint64) []lsf.Params {
	return schemeParams(d, n, reps, seed, func(x bitvec.Vector, j int, _ uint32) float64 {
		if denom := 0.5*float64(x.Len()) - float64(j); denom > 1 {
			return 1 / denom
		}
		return 1
	})
}

// schemeParams is core.EngineParams restated for this package's tests,
// which cannot import core (core is built over segment): reps
// repetitions of threshold under the product stopping rule for n, each
// with its own seed drawn from seed.
func schemeParams(d *dist.Product, n, reps int, seed uint64, threshold lsf.ThresholdFunc) []lsf.Params {
	seeds := hashing.NewSplitMix64(seed)
	params := make([]lsf.Params, reps)
	for r := range params {
		params[r] = lsf.Params{Seed: seeds.Next(), Probs: d.Probs(), Threshold: threshold, Stop: lsf.ProductStopRule(n)}
	}
	return params
}

func testDist(t *testing.T) *dist.Product {
	t.Helper()
	d, err := dist.NewProduct(dist.Zipf(64, 0.5, 1.0))
	if err != nil {
		t.Fatalf("NewProduct: %v", err)
	}
	return d
}

// staticCandidates reproduces the union-over-repetitions candidate set
// of a single static build over data: one lsf.BuildIndex per repetition
// engine parameterization, deduplicated in first-encounter order.
type staticIndex struct {
	reps []*lsf.Index
	data []bitvec.Vector
}

func buildStatic(t *testing.T, params []lsf.Params, n int, data []bitvec.Vector) *staticIndex {
	t.Helper()
	st := &staticIndex{data: data}
	for _, p := range params {
		eng, err := lsf.NewEngine(n, p)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		ix, err := lsf.BuildIndex(eng, data)
		if err != nil {
			t.Fatalf("BuildIndex: %v", err)
		}
		st.reps = append(st.reps, ix)
	}
	return st
}

func (st *staticIndex) candidates(q bitvec.Vector) []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, rep := range st.reps {
		ids, _ := rep.CandidateIDs(q)
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// TestDifferentialStatic is the acceptance test: a SegmentedIndex with
// at least two frozen segments plus a live memtable, under a randomized
// insert/delete workload, answers with exactly the candidate set (and
// best/top-k similarities) of a static per-repetition build over the
// equivalent final data.
func TestDifferentialStatic(t *testing.T) {
	const (
		n       = 600
		reps    = 4
		deletes = 150
		queries = 80
	)
	d := testDist(t)
	params := testParams(d, n, reps, 42)
	rng := hashing.NewSplitMix64(99)

	s, err := New(Config{Params: params, N: n, MemtableSize: 128, MaxSegments: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	data := d.SampleN(rng, n)
	ids := make([]int64, n)
	for i, v := range data {
		id, err := s.Insert(v)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		ids[i] = id
	}
	// Delete a random subset, including vectors already frozen into
	// segments and vectors still in the memtable.
	deleted := make(map[int64]bool)
	for len(deleted) < deletes {
		id := ids[rng.NextBelow(uint64(n))]
		if !deleted[id] {
			if !s.Delete(id) {
				t.Fatalf("Delete(%d) reported not live", id)
			}
			deleted[id] = true
		}
	}
	s.WaitIdle()
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("want >= 2 frozen segments, got %+v", st)
	}
	if st.Memtable == 0 {
		t.Fatalf("want a non-empty live memtable, got %+v", st)
	}
	if st.Live != n-deletes {
		t.Fatalf("live = %d, want %d", st.Live, n-deletes)
	}

	// Equivalent final data: the live vectors in insertion order. Static
	// id i maps to external id liveIDs[i].
	var liveData []bitvec.Vector
	var liveIDs []int64
	for i, id := range ids {
		if !deleted[id] {
			liveData = append(liveData, data[i])
			liveIDs = append(liveIDs, id)
		}
	}
	static := buildStatic(t, params, n, liveData)

	qs := d.SampleN(rng, queries)
	qs = append(qs, liveData[0], liveData[len(liveData)-1]) // planted exact hits
	for qi, q := range qs {
		want := make(map[int64]bool)
		for _, sid := range static.candidates(q) {
			want[liveIDs[sid]] = true
		}
		got, _ := s.CandidatesExt(q)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d candidates, want %d", qi, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("query %d: unexpected candidate %d", qi, id)
			}
			if deleted[id] {
				t.Fatalf("query %d: tombstoned candidate %d returned", qi, id)
			}
		}

		// Best-match similarity must agree with an exhaustive scan over
		// the static candidate set.
		m := bitvec.BraunBlanquetMeasure
		bestSim := -1.0
		bestID := int64(-1)
		for _, sid := range static.candidates(q) {
			if sim := m.Similarity(q, liveData[sid]); sim > bestSim || (sim == bestSim && liveIDs[sid] < bestID) {
				bestSim, bestID = sim, liveIDs[sid]
			}
		}
		match, _, found := queryBest(s, q, m)
		if found != (bestSim >= 0) {
			t.Fatalf("query %d: found=%v, static best %v", qi, found, bestSim)
		}
		if found && match.Similarity != bestSim {
			t.Fatalf("query %d: best similarity %v, want %v", qi, match.Similarity, bestSim)
		}

		// Top-k agrees entry by entry (the tie order — similarity desc,
		// external id asc — is shared because auto ids are monotone in
		// insertion order, as are static ids).
		wantTop := topKStatic(q, static, liveIDs, m, 5)
		gotTop, _ := queryTopK(s, q, 5, m)
		if len(gotTop) != len(wantTop) {
			t.Fatalf("query %d: top-k %d entries, want %d", qi, len(gotTop), len(wantTop))
		}
		for i := range gotTop {
			if gotTop[i] != wantTop[i] {
				t.Fatalf("query %d: top-k[%d] = %+v, want %+v", qi, i, gotTop[i], wantTop[i])
			}
		}
	}
}

func topKStatic(q bitvec.Vector, st *staticIndex, liveIDs []int64, m bitvec.Measure, k int) []Match {
	var matches []Match
	for _, sid := range st.candidates(q) {
		if sim := m.Similarity(q, st.data[sid]); sim > 0 {
			matches = append(matches, Match{ID: liveIDs[sid], Similarity: sim})
		}
	}
	SortMatches(matches)
	if len(matches) > k {
		matches = matches[:k]
	}
	return matches
}

// TestCompaction forces merges and checks the candidate set survives
// them with tombstones physically dropped.
func TestCompaction(t *testing.T) {
	const n = 512
	d := testDist(t)
	params := testParams(d, n, 3, 7)
	rng := hashing.NewSplitMix64(3)

	s, err := New(Config{Params: params, N: n, MemtableSize: 32, MaxSegments: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	data := d.SampleN(rng, n)
	for _, v := range data {
		if _, err := s.Insert(v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Tombstone every odd insert, then force the worker through its
	// backlog: segments must compact to <= MaxSegments and reclaim dead
	// vectors from merged segments.
	for id := int64(1); id < n; id += 2 {
		s.Delete(id)
	}
	s.Flush()
	s.WaitIdle()
	st := s.Stats()
	if st.Segments > 2 {
		t.Fatalf("compaction left %d segments, want <= 2", st.Segments)
	}
	if st.Compactions == 0 {
		t.Fatalf("no compactions ran: %+v", st)
	}
	total := 0
	for _, sz := range st.SegmentSizes {
		total += sz
	}
	if total >= n {
		t.Fatalf("compaction reclaimed nothing: %d vectors frozen for %d live", total, st.Live)
	}

	var liveData []bitvec.Vector
	var liveIDs []int64
	for i, v := range data {
		if int64(i)%2 == 0 {
			liveData = append(liveData, v)
			liveIDs = append(liveIDs, int64(i))
		}
	}
	static := buildStatic(t, params, n, liveData)
	for qi, q := range d.SampleN(rng, 40) {
		want := make(map[int64]bool)
		for _, sid := range static.candidates(q) {
			want[liveIDs[sid]] = true
		}
		got, _ := s.CandidatesExt(q)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d candidates, want %d", qi, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("query %d: unexpected candidate %d", qi, id)
			}
		}
	}
}

// TestSnapshotRoundTrip: segments + memtable + tombstones survive a
// WriteSnapshot/ReadSnapshot cycle, and a second snapshot of the
// restored index is byte-identical (the format is deterministic given
// the same layered state).
func TestSnapshotRoundTrip(t *testing.T) {
	const n = 300
	d := testDist(t)
	params := testParams(d, n, 3, 11)
	cfg := Config{Params: params, N: n, MemtableSize: 64, MaxSegments: 100}
	rng := hashing.NewSplitMix64(8)

	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	data := d.SampleN(rng, n)
	for _, v := range data {
		if _, err := s.Insert(v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for id := int64(0); id < n; id += 5 {
		s.Delete(id)
	}
	s.WaitIdle() // flushing list empty: snapshot layering is stable

	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap1 := slices.Clone(buf.Bytes())

	r, err := ReadSnapshot(&buf, cfg)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	defer r.Close()
	r.WaitIdle()

	if got, want := r.Stats().Live, s.Stats().Live; got != want {
		t.Fatalf("restored live = %d, want %d", got, want)
	}
	for qi, q := range d.SampleN(rng, 40) {
		want, _ := s.CandidatesExt(q)
		got, _ := r.CandidatesExt(q)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(want, got) {
			t.Fatalf("query %d: restored candidates %v, want %v", qi, got, want)
		}
	}

	// Inserting into the restored index never reuses an id.
	id, err := r.Insert(data[0])
	if err != nil {
		t.Fatalf("Insert after restore: %v", err)
	}
	if id < n {
		t.Fatalf("restored index reused id %d (nextAuto not restored)", id)
	}

	var buf2 bytes.Buffer
	r2, err := ReadSnapshot(bytes.NewReader(snap1), cfg)
	if err != nil {
		t.Fatalf("ReadSnapshot (second): %v", err)
	}
	defer r2.Close()
	if _, err := r2.WriteSnapshot(&buf2); err != nil {
		t.Fatalf("WriteSnapshot (restored): %v", err)
	}
	if !bytes.Equal(snap1, buf2.Bytes()) {
		t.Fatalf("snapshot not stable across a round trip: %d vs %d bytes", len(snap1), buf2.Len())
	}
}

// TestSnapshotBurnsDeletedMemtableIDs: an id deleted while its vector
// is still in the memtable must stay unusable after a snapshot/restore
// cycle — same never-reuse contract as the live index.
func TestSnapshotBurnsDeletedMemtableIDs(t *testing.T) {
	d := testDist(t)
	params := testParams(d, 64, 2, 1)
	cfg := Config{Params: params, N: 64, MemtableSize: 1024}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	v := bitvec.New(30, 31, 32)
	if err := s.InsertWithID(7, v); err != nil {
		t.Fatalf("InsertWithID: %v", err)
	}
	if !s.Delete(7) {
		t.Fatal("Delete failed")
	}
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	r, err := ReadSnapshot(&buf, cfg)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	defer r.Close()
	if err := r.InsertWithID(7, v); err == nil {
		t.Fatal("restored index resurrected a deleted memtable id")
	}
	if got := r.Stats().Live; got != 0 {
		t.Fatalf("restored live = %d, want 0", got)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	d := testDist(t)
	params := testParams(d, 64, 2, 1)
	cfg := Config{Params: params, N: 64}
	for _, tc := range [][]byte{
		nil,
		[]byte("not a snapshot"),
		append([]byte("SKSNP1"), bytes.Repeat([]byte{0xff}, 16)...),
	} {
		if _, err := ReadSnapshot(bytes.NewReader(tc), cfg); err == nil {
			t.Fatalf("ReadSnapshot(%q...) succeeded on garbage", tc)
		}
	}
}

// TestJoinSeam: a SegmentedIndex drops into the join driver through the
// CandidateSource interface and produces the same pairs as the same
// join over a static build (slot ids map to static ids because no
// deletes occurred).
func TestJoinSeam(t *testing.T) {
	const n = 200
	d := testDist(t)
	params := testParams(d, n, 3, 5)
	rng := hashing.NewSplitMix64(21)
	s, err := New(Config{Params: params, N: n, MemtableSize: 64, MaxSegments: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	data := d.SampleN(rng, n)
	for _, v := range data {
		if _, err := s.Insert(v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	s.WaitIdle()
	var _ join.CandidateSource = s // compile-time seam check

	r := d.SampleN(rng, 50)
	pairs, _, err := join.Run(s, r, 0.4, bitvec.BraunBlanquetMeasure)
	if err != nil {
		t.Fatalf("join.Run: %v", err)
	}
	static := buildStatic(t, params, n, data)
	wantPairs, _, err := join.Run(candSource{static}, r, 0.4, bitvec.BraunBlanquetMeasure)
	if err != nil {
		t.Fatalf("join.Run static: %v", err)
	}
	if !slices.Equal(pairs, wantPairs) {
		t.Fatalf("segmented join: %d pairs, static join: %d pairs", len(pairs), len(wantPairs))
	}
}

type candSource struct{ st *staticIndex }

func (c candSource) Candidates(q bitvec.Vector) []int32 { return c.st.candidates(q) }
func (c candSource) Data() []bitvec.Vector              { return c.st.data }

// TestConfigNegativeValues: non-positive sizing knobs fall back to
// defaults instead of wedging the worker (a negative MaxSegments once
// made needsCompact true with zero segments — an instant worker panic).
func TestConfigNegativeValues(t *testing.T) {
	d := testDist(t)
	params := testParams(d, 64, 2, 1)
	s, err := New(Config{Params: params, N: -5, MemtableSize: -1, MaxSegments: -3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if _, err := s.Insert(bitvec.New(uint32(30+i), uint32(40+i))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	s.Flush()
	s.WaitIdle() // would panic/hang before the clamp
	if got := s.Stats().Live; got != 10 {
		t.Fatalf("live = %d, want 10", got)
	}
}

func TestInsertWithIDRejectsReuse(t *testing.T) {
	d := testDist(t)
	params := testParams(d, 64, 2, 1)
	s, err := New(Config{Params: params, N: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	v := bitvec.New(1, 2, 3)
	if err := s.InsertWithID(7, v); err != nil {
		t.Fatalf("InsertWithID: %v", err)
	}
	if err := s.InsertWithID(7, v); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if !s.Delete(7) {
		t.Fatal("Delete(7) failed")
	}
	if err := s.InsertWithID(7, v); err == nil {
		t.Fatal("deleted id resurrected")
	}
	if s.Delete(7) {
		t.Fatal("double delete reported live")
	}
	// Auto ids skip past caller-chosen ones.
	id, err := s.Insert(v)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id <= 7 {
		t.Fatalf("auto id %d collides with caller range", id)
	}
}

func TestQueryStatsAccounting(t *testing.T) {
	const n = 256
	d := testDist(t)
	params := testParams(d, n, 3, 13)
	rng := hashing.NewSplitMix64(4)
	s, err := New(Config{Params: params, N: n, MemtableSize: 64, MaxSegments: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	for _, v := range d.SampleN(rng, n) {
		if _, err := s.Insert(v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	s.WaitIdle()
	q := d.Sample(rng)
	cands, qs := s.CandidatesExt(q)
	if qs.Reps != 3 {
		t.Fatalf("Reps = %d, want 3", qs.Reps)
	}
	if qs.Distinct != len(cands) {
		t.Fatalf("Distinct = %d, returned %d candidates", qs.Distinct, len(cands))
	}
	if qs.Candidates < qs.Distinct {
		t.Fatalf("Candidates %d < Distinct %d", qs.Candidates, qs.Distinct)
	}
	if qs.Segments != s.Stats().Segments {
		t.Fatalf("Segments = %d, want %d", qs.Segments, s.Stats().Segments)
	}
}

// TestBulkLoadMatchesInsert: a bulk-loaded index answers every mode,
// with the same work, exactly like one holding the same vectors through
// Insert and a freeze into one segment; it survives a snapshot round
// trip, and accepts writes after the load under the next id.
func TestBulkLoadMatchesInsert(t *testing.T) {
	const n = 400
	d := testDist(t)
	cfg := Config{Params: testParams(d, n, 3, 21), N: n, MemtableSize: 2 * n}
	rng := hashing.NewSplitMix64(21)
	data := d.SampleN(rng, n)
	bulk, err := BulkLoad(cfg, data)
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	defer bulk.Close()
	ref, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer ref.Close()
	for _, v := range data {
		if _, err := ref.Insert(v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	ref.Flush()
	var buf bytes.Buffer
	if _, err := bulk.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	restored, err := ReadSnapshot(&buf, cfg)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	defer restored.Close()

	m := bitvec.BraunBlanquetMeasure
	queries := append(d.SampleN(rng, 40), data[:20]...)
	for _, s := range []*SegmentedIndex{bulk, restored} {
		if st := s.Stats(); st.Live != n || st.Segments != 1 || st.Memtable != 0 {
			t.Fatalf("stats %+v, want %d live vectors in one segment", st, n)
		}
		for k, q := range queries {
			for _, req := range []Request{{Mode: ModeBest}, {Mode: ModeFirst, Thresholds: []float64{0.5}}, {Mode: ModeTopK, K: 5}} {
				got, gst := searchQuery(s, q, m, req)
				want, wst := searchQuery(ref, q, m, req)
				if got.Found != want.Found || got.Match != want.Match || !slices.Equal(got.Matches, want.Matches) {
					t.Fatalf("query %d mode %d: %+v, want %+v", k, req.Mode, got, want)
				}
				// A snapshot restore carries no bloom filter, so it alone
				// probes every path.
				if s == bulk && gst != wst {
					t.Fatalf("query %d mode %d: stats %+v, want %+v", k, req.Mode, gst, wst)
				}
			}
			if got, want := s.Candidates(q), ref.Candidates(q); !slices.Equal(got, want) {
				t.Fatalf("query %d: candidates %v, want %v", k, got, want)
			}
		}
	}
	k := slices.IndexFunc(data, func(v bitvec.Vector) bool {
		_, st, _ := queryBest(ref, v, m)
		return st.Candidates > 0
	})
	if id, err := bulk.Insert(data[k]); err != nil || id != n {
		t.Fatalf("Insert after BulkLoad = %d, %v; want id %d", id, err, n)
	}
	bulk.Flush()
	if got, _, _ := queryBest(bulk, data[k], m); got.ID != int64(k) || got.Similarity != 1 {
		t.Fatalf("best match after the insert: %+v, want id %d (the lower of two equal vectors)", got, k)
	}
	if got, _ := searchQuery(bulk, data[k], m, Request{Mode: ModeTopK, K: 2}); len(got.Matches) != 2 || got.Matches[1].ID != n {
		t.Fatalf("top 2 after the insert: %+v, want ids %d and %d", got.Matches, k, n)
	}

	// Load under a shard's ids — ascending, with gaps — answers like
	// InsertBatch of the same vectors under the same ids: the same
	// candidate sets, and the same best and full top-k rankings, whose
	// ties go to the lowest id.
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(3*i + 1)
	}
	loaded, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if err := loaded.Load(ids, data); err != nil {
		t.Fatalf("Load: %v", err)
	}
	batched, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	if err := batched.InsertBatch(ids, data); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for k, q := range queries {
		got, _ := loaded.CandidatesExt(q)
		want, _ := batched.CandidatesExt(q)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: loaded candidates %v, inserted %v", k, got, want)
		}
		for _, req := range []Request{{Mode: ModeBest}, {Mode: ModeTopK, K: n}} {
			got, _ := searchQuery(loaded, q, m, req)
			want, _ := searchQuery(batched, q, m, req)
			if got.Found != want.Found || got.Match != want.Match || !slices.Equal(got.Matches, want.Matches) {
				t.Fatalf("query %d mode %d: loaded %+v, inserted %+v", k, req.Mode, got, want)
			}
		}
	}
	if st := loaded.Stats(); st.Segments != 1 || st.Memtable != 0 || st.Live != n {
		t.Fatalf("loaded stats %+v, want %d live vectors in one segment", st, n)
	}
	if next := loaded.NextID(); next != ids[n-1]+1 {
		t.Fatalf("NextID after Load = %d, want %d", next, ids[n-1]+1)
	}

	// Load refuses a non-empty index (a loaded one, one that only burnt
	// a dead id) and a repeated id, and loads nothing when it refuses.
	if err := loaded.Load([]int64{-1}, data[:1]); err == nil {
		t.Fatal("Load into a loaded index accepted")
	}
	burnt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer burnt.Close()
	burnt.NoteDeadID(5)
	if err := burnt.Load(ids, data); err == nil {
		t.Fatal("Load into an index with a tombstone accepted")
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Load([]int64{7, 8, 7}, data[:3]); !errors.Is(err, ErrIDTaken) {
		t.Fatalf("Load with a repeated id: %v, want ErrIDTaken", err)
	}
	if st := fresh.Stats(); st.Total != 0 || st.Segments != 0 {
		t.Fatalf("refused Load left %+v", st)
	}
}
