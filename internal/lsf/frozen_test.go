package lsf

import (
	"bytes"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
)

// refIndex is a deliberately naive map-based inverted index — string path
// keys, one []int32 per bucket, map dedup per query — used as the
// unfrozen reference the arena/CSR implementation must match exactly:
// same candidates in the same first-encounter order, same QueryStats,
// same early-exit behaviour.
type refIndex struct {
	engine       *Engine
	data         []bitvec.Vector
	buckets      map[string][]int32
	totalFilters int
	truncated    int
}

func buildRefIndex(engine *Engine, data []bitvec.Vector) *refIndex {
	r := &refIndex{engine: engine, data: data, buckets: make(map[string][]int32)}
	for id, x := range data {
		fs := engine.Filters(x)
		if fs.Truncated {
			r.truncated++
		}
		for _, p := range fs.Paths {
			k := PathKey(p)
			r.buckets[k] = append(r.buckets[k], int32(id))
		}
		r.totalFilters += len(fs.Paths)
	}
	return r
}

// traverse mirrors Index.traverse's contract on the map representation.
func (r *refIndex) traverse(q bitvec.Vector, stats *QueryStats, sink func(id int32) bool) {
	fs := r.engine.Filters(q)
	stats.Filters = len(fs.Paths)
	stats.Truncated = fs.Truncated
	seen := make(map[int32]struct{})
	for _, p := range fs.Paths {
		for _, id := range r.buckets[PathKey(p)] {
			stats.Candidates++
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			stats.Distinct++
			if !sink(id) {
				return
			}
		}
	}
}

func (r *refIndex) query(q bitvec.Vector, threshold float64, m bitvec.Measure) (int, float64, QueryStats, bool) {
	best, sim, found := -1, 0.0, false
	var stats QueryStats
	r.traverse(q, &stats, func(id int32) bool {
		if s := m.Similarity(q, r.data[id]); s >= threshold {
			best, sim, found = int(id), s, true
			return false
		}
		return true
	})
	return best, sim, stats, found
}

func (r *refIndex) queryBest(q bitvec.Vector, m bitvec.Measure) (int, float64, QueryStats, bool) {
	best, sim := -1, -1.0
	var stats QueryStats
	r.traverse(q, &stats, func(id int32) bool {
		if s := m.Similarity(q, r.data[id]); s > sim {
			best, sim = int(id), s
		}
		return true
	})
	if best < 0 {
		return -1, 0, stats, false
	}
	return best, sim, stats, true
}

func (r *refIndex) candidateIDs(q bitvec.Vector) ([]int32, QueryStats) {
	var stats QueryStats
	var ids []int32
	r.traverse(q, &stats, func(id int32) bool {
		ids = append(ids, id)
		return true
	})
	return ids, stats
}

// differentialWorkload builds a randomized engine + dataset + query mix
// (indexed vectors, perturbed vectors, fresh samples) from one seed.
func differentialWorkload(t *testing.T, seed uint64) (*Engine, []bitvec.Vector, []bitvec.Vector) {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	n := 100 + int(rng.NextBelow(200))
	dim := 60 + int(rng.NextBelow(100))
	p := 0.05 + 0.25*rng.NextUnit()
	d := dist.MustProduct(dist.Uniform(dim, p))
	data := d.SampleN(rng, n)
	b1 := 0.4 + 0.4*rng.NextUnit()
	e, err := NewEngine(n, Params{
		Seed:  rng.Next(),
		Probs: d.Probs(),
		Threshold: func(v bitvec.Vector, j int, _ uint32) float64 {
			denom := b1*float64(v.Len()) - float64(j)
			if denom <= 1 {
				return 1
			}
			return 1 / denom
		},
		Stop: ProductStopRule(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]bitvec.Vector, 0, 60)
	queries = append(queries, data[:20]...)
	queries = append(queries, d.SampleN(rng, 20)...)
	for k := 0; k < 20; k++ {
		// Perturbed copies of indexed vectors: drop ~1/4 of the bits.
		var bits []uint32
		for _, b := range data[k].Bits() {
			if rng.NextBelow(4) != 0 {
				bits = append(bits, b)
			}
		}
		queries = append(queries, bitvec.FromSorted(bits))
	}
	return e, data, queries
}

// TestFrozenIndexMatchesMapReference is the differential property test of
// the freeze: for randomized workloads, every query entry point of the
// frozen CSR index — Query, QueryBest and CandidateIDs —
// must return byte-identical results and QueryStats to the naive
// map-based reference.
func TestFrozenIndexMatchesMapReference(t *testing.T) {
	m := bitvec.BraunBlanquetMeasure
	for seed := uint64(1); seed <= 8; seed++ {
		e, data, queries := differentialWorkload(t, seed)
		ix, err := BuildIndex(e, data)
		if err != nil {
			t.Fatal(err)
		}
		ref := buildRefIndex(e, data)

		st := ix.Stats()
		if st.TotalFilters != ref.totalFilters || st.Buckets != len(ref.buckets) || st.Truncated != ref.truncated {
			t.Fatalf("seed %d: build stats %+v, reference totalFilters=%d buckets=%d truncated=%d",
				seed, st, ref.totalFilters, len(ref.buckets), ref.truncated)
		}

		const threshold = 0.5
		for k, q := range queries {
			wantID, wantSim, wantStats, wantFound := ref.query(q, threshold, m)
			gotID, gotSim, gotStats, gotFound := ix.Query(q, threshold, m)
			if gotID != wantID || gotSim != wantSim || gotStats != wantStats || gotFound != wantFound {
				t.Fatalf("seed %d query %d: Query = (%d, %v, %+v, %v), reference (%d, %v, %+v, %v)",
					seed, k, gotID, gotSim, gotStats, gotFound, wantID, wantSim, wantStats, wantFound)
			}

			wantID, wantSim, wantStats, wantFound = ref.queryBest(q, m)
			gotID, gotSim, gotStats, gotFound = ix.QueryBest(q, m)
			if gotID != wantID || gotSim != wantSim || gotStats != wantStats || gotFound != wantFound {
				t.Fatalf("seed %d query %d: QueryBest = (%d, %v, %+v, %v), reference (%d, %v, %+v, %v)",
					seed, k, gotID, gotSim, gotStats, gotFound, wantID, wantSim, wantStats, wantFound)
			}

			wantIDs, wantStats2 := ref.candidateIDs(q)
			gotIDs, gotStats2 := ix.CandidateIDs(q)
			if gotStats2 != wantStats2 || len(gotIDs) != len(wantIDs) {
				t.Fatalf("seed %d query %d: CandidateIDs stats %+v (%d ids), reference %+v (%d ids)",
					seed, k, gotStats2, len(gotIDs), wantStats2, len(wantIDs))
			}
			for i := range gotIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("seed %d query %d: candidate order diverged at %d: %d vs %d",
						seed, k, i, gotIDs[i], wantIDs[i])
				}
			}
		}
	}
}

// TestSerializeRoundTripThroughFrozenLayout checks that serialization out
// of the frozen arenas (WriteFrozen) and a heap open back into them is
// lossless: identical bucket contents, stats, query behaviour, and
// re-serialized bytes, in both posting encodings.
func TestSerializeRoundTripThroughFrozenLayout(t *testing.T) {
	e, data, queries := differentialWorkload(t, 99)
	ix, err := BuildIndex(e, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		firstBytes := frozenBytes(t, ix, compress)
		back, err := OpenFrozenBytes(firstBytes, e, data, false)
		if err != nil {
			t.Fatal(err)
		}
		if back.Stats() != ix.Stats() {
			t.Fatalf("stats changed across round trip: %+v vs %+v", back.Stats(), ix.Stats())
		}
		if !indexesEqual(ix, back) {
			t.Fatal("frozen bucket contents changed across round trip")
		}
		m := bitvec.BraunBlanquetMeasure
		for k, q := range queries {
			aID, aSim, aStats, aFound := ix.Query(q, 0.5, m)
			bID, bSim, bStats, bFound := back.Query(q, 0.5, m)
			if aID != bID || aSim != bSim || aStats != bStats || aFound != bFound {
				t.Fatalf("query %d diverged after round trip", k)
			}
		}
		if !bytes.Equal(firstBytes, frozenBytes(t, back, compress)) {
			t.Fatalf("compress=%v: re-serialized bytes differ from the original encoding", compress)
		}
	}
}
