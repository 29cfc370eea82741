package lsf

import (
	"errors"
	"sync"

	"skewsim/internal/bitvec"
	"skewsim/internal/verify"
)

// Index is the inverted filter index of §3: for every path chosen by some
// data vector it stores the list of vectors that chose it. Space is
// linear in Σ_x |F(x)| plus the data itself.
//
// The index is frozen: construction goes through a Builder, and the
// finished structure is four flat arenas plus an open-addressing key
// table — no per-bucket heap objects, no pointers for the GC to trace,
// and traversal is pure array arithmetic:
//
//   - tableKeys/tableIdx: an open-addressing (linear-probe) table mapping
//     a 64-bit path hash to a bucket number; distinct paths that collide
//     on the hash simply occupy separate slots, and every probe verifies
//     path equality, so correctness never depends on hash quality.
//   - pathSpans/pathElems: every distinct path's elements, back to back
//     in one arena, addressed by (offset, length) spans per bucket.
//   - idOff/ids: the posting lists in CSR form — bucket b's ids are
//     ids[idOff[b]:idOff[b+1]], in insertion (= vector id) order.
type Index struct {
	engine *Engine
	data   []bitvec.Vector
	// visitPool recycles the epoch-stamped visited sets queries use for
	// candidate deduplication, so steady-state queries allocate nothing
	// for dedup and concurrent queries each get their own set.
	visitPool VisitedPool
	// fsPool recycles per-query FilterSets (arena + spans) so traversal
	// reuses filter storage across queries.
	fsPool sync.Pool
	// refPool recycles the per-query PostingRef scratch of the two-phase
	// traversal (resolve all buckets, then walk all spans).
	refPool sync.Pool
	// packed is the word-packed form of data for popcount verification,
	// shared across the repetitions of a SkewSearch index (see UsePacked).
	// nil indexes verify against the sorted slices, with identical results.
	packed *bitvec.PackedSet

	// frozen layout
	tableKeys []uint64 // path hash per slot (valid where tableIdx >= 0)
	tableIdx  []int32  // bucket number per slot; -1 = empty
	tableMask uint64   // len(tableIdx) is a power of two
	pathSpans []Span   // per bucket: the path's span in pathElems
	pathElems []uint32 // arena of all distinct paths' elements
	idOff     []uint32 // CSR offsets into ids; len = buckets + 1
	ids       []int32  // all posting lists, bucket-major (nil when cold)

	// cold, when non-nil, replaces ids with compressed decode-on-read
	// posting storage (the spilled tier of internal/segment); see
	// frozen.go. All structural validation happens at open, so decodes
	// here never fail.
	cold *coldPostings
	// coldPool recycles per-traversal decode buffers for cold indexes.
	coldPool sync.Pool

	// stats from construction
	totalFilters   int
	truncatedCount int
}

// HashPath maps a path to its bucket key: splitmix-style mixing folded
// over the elements, seeded with the length so prefixes of a path do not
// trivially collide with it. Exported so the mutable memtable layer
// (internal/segment) buckets by the same key as the frozen index.
func HashPath(path []uint32) uint64 {
	h := uint64(len(path))*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for _, e := range path {
		h ^= uint64(e) + 1
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	h *= 0x94d049bb133111eb
	return h ^ (h >> 32)
}

func pathsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bucketPath returns bucket b's path as a view into the arena.
func (ix *Index) bucketPath(b int32) []uint32 {
	s := ix.pathSpans[b]
	return ix.pathElems[s.Off : s.Off+s.Len]
}

// bucketIDs returns bucket b's posting list as a view into the CSR
// arena. Resident indexes only; cold callers go through appendColdBucket.
func (ix *Index) bucketIDs(b int32) []int32 {
	return ix.ids[ix.idOff[b]:ix.idOff[b+1]]
}

// PostingRef addresses one posting list inside the frozen CSR arena:
// ids[Off:Off+Len]. Refs are plain offsets, so a traversal can resolve
// all its buckets first (the pointer-chasing phase) and then walk the
// spans (the sequential phase) — and a batch executor can sort refs by
// Off to visit the arena in layout order. A ref is valid for the
// lifetime of its (immutable) index.
type PostingRef struct {
	Off, Len uint32
}

// PathRef resolves the exact path to its posting span, reporting
// whether the path is indexed. Never allocates: one linear-probe walk
// over the key table, path equality verified against the span arena.
func (ix *Index) PathRef(path []uint32) (PostingRef, bool) {
	return ix.PathRefHash(HashPath(path), path)
}

// PathRefHash is PathRef with a caller-precomputed HashPath(path) — the
// segmented layer hashes each query path once and probes every frozen
// segment (and its bloom filter) with the same key.
func (ix *Index) PathRefHash(h uint64, path []uint32) (PostingRef, bool) {
	if len(ix.tableIdx) == 0 {
		return PostingRef{}, false
	}
	for slot := h & ix.tableMask; ; slot = (slot + 1) & ix.tableMask {
		b := ix.tableIdx[slot]
		if b < 0 {
			return PostingRef{}, false
		}
		if ix.tableKeys[slot] == h && pathsEqual(ix.bucketPath(b), path) {
			off := ix.idOff[b]
			return PostingRef{Off: off, Len: ix.idOff[b+1] - off}, true
		}
	}
}

// RefIDs returns the posting list a PathRef resolved to — a read-only
// view into the CSR arena, or a freshly decoded slice on a cold index.
// Hot paths that may see cold indexes should prefer RefIDsBuf.
func (ix *Index) RefIDs(r PostingRef) []int32 {
	if ix.cold != nil {
		return ix.AppendRefIDs(nil, r)
	}
	return ix.ids[r.Off : r.Off+r.Len]
}

// postings returns the ids sharing the path, or nil.
func (ix *Index) postings(path []uint32) []int32 {
	r, ok := ix.PathRef(path)
	if !ok {
		return nil
	}
	return ix.RefIDs(r)
}

// Postings returns the posting list of the exact path as a read-only view
// into the CSR arena, or nil when no indexed vector chose it. It is the
// segment-facing probe: the segmented index (internal/segment) computes
// F(q) once and probes every frozen segment per path instead of paying
// one full traversal per segment.
func (ix *Index) Postings(path []uint32) []int32 { return ix.postings(path) }

// ForEachBucket visits every (key, path, posting list) bucket of the
// frozen index, the key being the one the bucket is stored under in the
// key table. Both slices are views into the arenas and must not be
// modified or retained across calls. Bucket order is the internal
// bucket numbering (first-insertion order, deterministic but not
// sorted; WriteTo sorts by PathKey). This is the replay hook segment
// compaction uses to merge frozen segments without recomputing any
// filter or re-hashing any path.
func (ix *Index) ForEachBucket(fn func(h uint64, path []uint32, ids []int32)) {
	keys := make([]uint64, len(ix.pathSpans))
	for slot, b := range ix.tableIdx {
		if b >= 0 {
			keys[b] = ix.tableKeys[slot]
		}
	}
	var ids, scratch []int32
	for b := range ix.pathSpans {
		b := int32(b)
		if ix.cold == nil {
			ids = ix.bucketIDs(b)
		} else {
			var err error
			if scratch, err = ix.appendColdBucket(scratch[:0], b); err != nil {
				panic(err) // unreachable: validated at open
			}
			ids = scratch
		}
		fn(keys[b], ix.bucketPath(b), ids)
	}
}

// BuildStats summarizes index construction work, the empirical counterpart
// of the preprocessing bound of Lemma 9/12.
type BuildStats struct {
	Vectors      int
	TotalFilters int // Σ_x |F(x)|
	Buckets      int // distinct paths
	Truncated    int // vectors whose filter sets hit the work budget
}

// BuildIndex computes F(x) for every data vector and constructs the
// inverted index. The data slice is retained (not copied). One FilterSet
// arena is reused across all vectors, so filter generation allocates
// nothing after warm-up; the builder's arenas grow amortized.
func BuildIndex(engine *Engine, data []bitvec.Vector) (*Index, error) {
	if engine == nil {
		return nil, errors.New("lsf: nil engine")
	}
	b := NewBuilder(engine)
	var fs FilterSet
	for id, x := range data {
		fs.Reset()
		engine.FiltersInto(x, &fs)
		b.addFilterSet(int32(id), &fs)
	}
	return b.Freeze(data), nil
}

// Stats returns construction statistics.
func (ix *Index) Stats() BuildStats {
	return BuildStats{
		Vectors:      len(ix.data),
		TotalFilters: ix.totalFilters,
		Buckets:      len(ix.pathSpans),
		Truncated:    ix.truncatedCount,
	}
}

// Data returns the indexed vectors.
func (ix *Index) Data() []bitvec.Vector { return ix.data }

// QueryStats records the work done by one query, the unit in which the
// scaling experiments measure n^ρ.
type QueryStats struct {
	// Filters is |F(q)|.
	Filters int
	// Candidates counts candidate occurrences over all filters of q, i.e.
	// Σ_{f∈F(q)} |{x : f ∈ F(x)}| — the quantity bounded by Lemma 7.
	Candidates int
	// Distinct counts distinct candidates verified.
	Distinct int
	// Truncated reports the query's filter generation hit the budget.
	Truncated bool
}

// Visited deduplicates candidate ids with an epoch-stamped array: reset
// is O(1) (bump the epoch) instead of O(distinct) map clearing, and
// membership is a single array load. The zero value is ready to use.
// Exported so the layers above (SkewSearch repetitions, the baselines,
// the split-search driver) share one dedup mechanism instead of
// allocating a map per query.
type Visited struct {
	stamp []uint32
	epoch uint32
}

// Begin prepares the set for a pass over ids in [0, n), forgetting any
// previous pass in O(1).
func (v *Visited) Begin(n int) {
	if cap(v.stamp) < n {
		// A fresh slice is already zeroed; start the epoch sequence over.
		v.stamp = make([]uint32, n)
		v.epoch = 1
		return
	}
	v.stamp = v.stamp[:n]
	v.epoch++
	if v.epoch == 0 {
		// Wrapped: stamps from 2^32 passes ago could alias the new epoch.
		// Clear the full capacity, not just the current length — a later
		// Begin with a larger n would otherwise see pre-wrap stamps.
		clear(v.stamp[:cap(v.stamp)])
		v.epoch = 1
	}
}

// FirstVisit reports whether id is new this pass, marking it visited.
func (v *Visited) FirstVisit(id int32) bool {
	if v.stamp[id] == v.epoch {
		return false
	}
	v.stamp[id] = v.epoch
	return true
}

// VisitedPool recycles Visited sets so concurrent queries each get their
// own and steady-state queries allocate nothing for dedup. The zero
// value is ready to use; every consumer of Visited in this codebase
// (lsf, core, the baselines, splitsearch) shares this one implementation.
type VisitedPool struct {
	pool sync.Pool
}

// Get returns a Visited ready for a pass over ids in [0, n).
func (p *VisitedPool) Get(n int) *Visited {
	v, _ := p.pool.Get().(*Visited)
	if v == nil {
		v = &Visited{}
	}
	v.Begin(n)
	return v
}

// Put returns the set to the pool.
func (p *VisitedPool) Put(v *Visited) { p.pool.Put(v) }

// resolveRefs probes the key table for filters [from, to) of fs,
// appending the posting span of each indexed path to dst in filter
// order. Unindexed paths contribute nothing (their posting lists are
// empty). Batching the probes separates traversal's pointer-chasing
// phase (hash-table lookups, scattered loads) from its sequential phase
// (walking id spans), so each runs back to back instead of alternating
// per bucket.
func (ix *Index) resolveRefs(dst []PostingRef, fs *FilterSet, from, to int) []PostingRef {
	for k := from; k < to; k++ {
		if r, ok := ix.PathRef(fs.Path(k)); ok && r.Len > 0 {
			dst = append(dst, r)
		}
	}
	return dst
}

// refBlock is the stride of the blocked traversal: how many filters are
// resolved to posting spans before those spans are walked. Large enough
// that the probe and walk phases each run over dozens of buckets in a
// tight loop, small enough that a threshold query's early exit wastes
// at most one block of probes.
const refBlock = 64

// traverse is the single candidate-traversal implementation behind every
// query entry point. It computes F(q) once (into a pooled arena), then
// alternates two phases per block of refBlock filters: resolve the
// block's buckets to posting spans back to back (the cache-hostile hash
// probes), then walk the resolved CSR spans in filter order,
// deduplicating ids and streaming each distinct candidate into sink in
// first-encounter order (sequential arena reads). The blocking changes
// no observable behaviour: spans are walked in exactly the order the
// fused probe-then-walk-per-bucket loop visited them. The sink returns
// false to stop early (the threshold query's early exit); stats always
// reflect exactly the work performed up to the stop.
//
// cc, when non-nil, is a cooperative cancellation checkpoint polled
// during filter generation and once per block of resolved posting
// spans — coarse enough that the nil (no-deadline) path pays one
// pointer compare per block, fine enough that a canceled query stops
// within one block's span walk. A canceled traversal leaves stats
// reflecting the work actually performed; callers distinguish it from
// a sink-initiated early stop through cc.Err().
func (ix *Index) traverse(q bitvec.Vector, stats *QueryStats, cc *CancelCheck, sink func(id int32) bool) {
	fs, _ := ix.fsPool.Get().(*FilterSet)
	if fs == nil {
		fs = new(FilterSet)
	}
	defer ix.fsPool.Put(fs)
	fs.Reset()
	ix.engine.FiltersIntoCancel(q, fs, cc)
	stats.Filters = fs.Len()
	stats.Truncated = fs.Truncated
	if fs.Len() == 0 || cc.Err() != nil {
		return
	}
	rs, _ := ix.refPool.Get().(*[refBlock]PostingRef)
	if rs == nil {
		rs = new([refBlock]PostingRef)
	}
	defer ix.refPool.Put(rs)
	vis := ix.visitPool.Get(len(ix.data))
	defer ix.visitPool.Put(vis)
	var coldBuf *[]int32
	if ix.cold != nil {
		coldBuf, _ = ix.coldPool.Get().(*[]int32)
		if coldBuf == nil {
			coldBuf = new([]int32)
		}
		defer ix.coldPool.Put(coldBuf)
	}
	for base := 0; base < fs.Len(); base += refBlock {
		if cc != nil && cc.Check() {
			return
		}
		end := base + refBlock
		if end > fs.Len() {
			end = fs.Len()
		}
		refs := ix.resolveRefs(rs[:0], fs, base, end)
		for _, r := range refs {
			var ids []int32
			if coldBuf != nil {
				ids = ix.RefIDsBuf(r, coldBuf)
			} else {
				ids = ix.ids[r.Off : r.Off+r.Len]
			}
			for _, id := range ids {
				stats.Candidates++
				if !vis.FirstVisit(id) {
					continue
				}
				stats.Distinct++
				if !sink(id) {
					return
				}
			}
		}
	}
}

// AppendFilterRefs computes F(q) into fs (resetting it first) and
// appends the resolved posting span of every indexed filter to refs, in
// filter order. It returns the grown refs slice plus the filter count
// and truncation flag of the generation. Walking the returned refs
// through RefIDs streams exactly the candidate occurrences, in exactly
// the order, that ForEachCandidate would deliver — the batch executor
// uses this to run filter generation and bucket resolution for many
// queries back to back while keeping per-query results bit-identical to
// the single-query path.
func (ix *Index) AppendFilterRefs(q bitvec.Vector, fs *FilterSet, refs []PostingRef) (_ []PostingRef, filters int, truncated bool) {
	fs.Reset()
	ix.engine.FiltersInto(q, fs)
	return ix.resolveRefs(refs, fs, 0, fs.Len()), fs.Len(), fs.Truncated
}

// ForEachCandidate streams the distinct data ids sharing at least one
// filter with q into sink, in first-encounter order, until sink returns
// false. It is the exported form of the traversal core, letting the
// layers above (cross-repetition dedup in core, the baselines) consume
// candidates without materializing per-repetition slices.
func (ix *Index) ForEachCandidate(q bitvec.Vector, sink func(id int32) bool) QueryStats {
	var stats QueryStats
	ix.traverse(q, &stats, nil, sink)
	return stats
}

// ForEachCandidateCancel is ForEachCandidate with a cooperative
// cancellation checkpoint threaded into the traversal loops (polled
// during filter generation and once per posting block). The returned
// error is non-nil exactly when the traversal was cut short by cc; the
// stats then reflect the work actually performed. A nil cc never
// cancels.
func (ix *Index) ForEachCandidateCancel(q bitvec.Vector, cc *CancelCheck, sink func(id int32) bool) (QueryStats, error) {
	var stats QueryStats
	ix.traverse(q, &stats, cc, sink)
	return stats, cc.Err()
}

// UsePacked attaches a word-packed form of the index's data, aligned
// with it by id, switching candidate verification in Query/QueryBest to
// popcount intersection. The packing is built once per dataset and
// shared across all repetitions of a SkewSearch index (core attaches the
// same set to every repetition), instead of once per repetition.
// Results are bit-identical with or without it.
func (ix *Index) UsePacked(ps *bitvec.PackedSet) { ix.packed = ps }

// Packed returns the attached packed dataset, or nil.
func (ix *Index) Packed() *bitvec.PackedSet { return ix.packed }

// Query returns the first indexed vector with measure-similarity at least
// threshold among the candidates sharing a filter with q, following the
// paper's query procedure. found reports whether any candidate passed.
// Verification goes through a pooled verify.Session: the query is packed
// once, and candidates are threshold-pruned before their intersection is
// computed.
func (ix *Index) Query(q bitvec.Vector, threshold float64, m bitvec.Measure) (best int, sim float64, stats QueryStats, found bool) {
	best, sim = -1, 0
	if ix.packed == nil {
		// No packed data (baseline instantiations like chosenpath):
		// verify straight off the sorted slices, paying no session.
		ix.traverse(q, &stats, nil, func(id int32) bool {
			if s := m.Similarity(q, ix.data[id]); s >= threshold {
				best, sim, found = int(id), s, true
				return false
			}
			return true
		})
		return best, sim, stats, found
	}
	ses := verify.Acquire(m, q)
	defer verify.Release(ses)
	ix.traverse(q, &stats, nil, func(id int32) bool {
		if s, ok := ses.AtLeast(ix.packed, ix.data, id, threshold); ok {
			best, sim, found = int(id), s, true
			return false
		}
		return true
	})
	return best, sim, stats, found
}

// QueryBest examines every candidate (instead of stopping at the first
// above threshold) and returns the most similar one. Used by the join
// driver and by experiments that need exact candidate-set behaviour.
// Each candidate is pruned against the running best before its
// intersection is computed.
func (ix *Index) QueryBest(q bitvec.Vector, m bitvec.Measure) (best int, sim float64, stats QueryStats, found bool) {
	best, sim = -1, -1
	if ix.packed == nil {
		ix.traverse(q, &stats, nil, func(id int32) bool {
			if s := m.Similarity(q, ix.data[id]); s > sim {
				best, sim = int(id), s
			}
			return true
		})
	} else {
		ses := verify.Acquire(m, q)
		defer verify.Release(ses)
		ix.traverse(q, &stats, nil, func(id int32) bool {
			if s, ok := ses.MoreThan(ix.packed, ix.data, id, sim); ok {
				best, sim = int(id), s
			}
			return true
		})
	}
	if best < 0 {
		return -1, 0, stats, false
	}
	return best, sim, stats, true
}

// CandidateIDs returns the distinct data ids sharing at least one filter
// with q, plus stats. Exposed for experiments that analyze candidate sets
// directly.
func (ix *Index) CandidateIDs(q bitvec.Vector) ([]int32, QueryStats) {
	return ix.AppendCandidateIDs(nil, q)
}

// AppendCandidateIDs is CandidateIDs appending into dst (which may be
// nil), so callers looping over queries can reuse one buffer and keep the
// traversal allocation-free in steady state.
func (ix *Index) AppendCandidateIDs(dst []int32, q bitvec.Vector) ([]int32, QueryStats) {
	var stats QueryStats
	ix.traverse(q, &stats, nil, func(id int32) bool {
		dst = append(dst, id)
		return true
	})
	return dst, stats
}
