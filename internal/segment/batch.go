package segment

import (
	"cmp"
	"context"
	"slices"

	"skewsim/internal/bitvec"
	"skewsim/internal/lsf"
	"skewsim/internal/verify"
)

// BatchResult is one query's outcome in a batch search.
type BatchResult struct {
	Match Match
	Found bool
}

// SearchBatch answers a batch of queries in one pass over the index,
// under one read lock (every query sees the same snapshot). Work that
// the single-query path repeats per query is amortized across the
// batch:
//
//   - one filter generation per repetition engine covers the whole
//     batch: the plan computes all queries' filter sets for a
//     repetition back to back while the engine's tables are hot (and,
//     at the server level, once for every shard);
//   - each frozen segment is visited once per batch per repetition,
//     and within it every query's resolved posting spans are walked in
//     ascending arena offset (posting-array order), so the segment's
//     CSR arena is read as sequentially as the bucket mix allows;
//   - each query's verify session (its packed bitmap) is built once by
//     the caller and reused across every layer — and, at the server
//     level, every shard.
//
// thresholds selects the semantics: nil answers best-match for every
// query (found means the query had any candidate, like QueryBest);
// otherwise thresholds[k] is query k's minimum similarity and found
// means a candidate at or above it exists (the batch analogue of
// Query, which returns some passing match — SearchBatch returns the
// best one, verifying exhaustively instead of stopping at the first).
// A query whose every repetition truncated and that found nothing is
// answered by an exact scan of the live slots, as in traverse.
//
// Per query, the candidate set — the distinct live slots sharing a
// filter with the query — is exactly the single-query path's; only the
// visit order differs. Results are deterministic regardless of that
// order: the reported match is the candidate with the highest
// similarity, ties broken by lowest external id. (The single-query
// QueryBest keeps the first-encountered of equal-similarity
// candidates instead, so on exact ties the two paths may name
// different — equally similar — ids.)
//
// The aggregate stats count batch-level work: Reps and Segments count
// each repetition and frozen segment once per batch (not once per
// query); Filters, Truncated, Candidates, and Distinct sum over all
// queries and equal the sums of the corresponding single-query stats.
func (s *SegmentedIndex) SearchBatch(sess []*verify.Session, thresholds []float64) ([]BatchResult, QueryStats) {
	out, stats, _ := s.SearchBatchContext(nil, sess, thresholds)
	return out, stats
}

// SearchBatchContext is SearchBatch with cooperative cancellation: ctx
// is polled between filter generations and posting-span walks, so an
// abandoned batch releases the read lock within one span instead of
// finishing the pass. On cancellation the partial results gathered so
// far are returned alongside the context error and must be treated as
// incomplete. A nil or never-canceled ctx costs one nil compare per
// checkpoint.
func (s *SegmentedIndex) SearchBatchContext(ctx context.Context, sess []*verify.Session, thresholds []float64) ([]BatchResult, QueryStats, error) {
	qs := make([]bitvec.Vector, len(sess))
	for k, ses := range sess {
		qs[k] = ses.Query()
	}
	p := s.eng.plan(qs...)
	defer s.eng.release(p)
	return s.SearchBatchPlan(lsf.NewCancelCheck(ctx), p, sess, thresholds)
}

// SearchBatchPlan is SearchBatchContext over a caller-built plan of the
// sessions' queries, in order, and a caller-built checkpoint (see
// QueryPlan).
func (s *SegmentedIndex) SearchBatchPlan(cc *lsf.CancelCheck, p *Plan, sess []*verify.Session, thresholds []float64) ([]BatchResult, QueryStats, error) {
	var stats QueryStats
	nq := len(sess)
	if nq == 0 {
		return nil, stats, nil
	}
	if thresholds != nil && len(thresholds) != nq {
		panic("segment: SearchBatch thresholds length does not match sessions")
	}
	s.checkPlan(p)
	if len(p.qs) != nq {
		panic("segment: SearchBatch plan does not cover the sessions")
	}
	if m := s.cfg.Metrics; m != nil {
		// One aggregate observation per shard-batch (query="batch"
		// children), on every exit path including cancellation.
		defer func() { m.observeBatch(&stats) }()
	}
	out := make([]BatchResult, nq)
	best := make([]float64, nq)
	for k := range best {
		best[k] = -1
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	stats.Segments = len(s.segs)
	vis := make([]*lsf.Visited, nq)
	for k := range vis {
		vis[k] = s.visitPool.Get(len(s.vecs))
	}
	defer func() {
		for _, v := range vis {
			s.visitPool.Put(v)
		}
	}()

	consider := func(k int, slot int32) {
		// Prune at the running best, non-strictly: equal-similarity
		// candidates must surface so the lowest-id tie-break can apply.
		t := -1.0
		if thresholds != nil {
			t = thresholds[k]
		}
		if out[k].Found && best[k] > t {
			t = best[k]
		}
		if sim, ok := sess[k].AtLeast(&s.packed, s.vecs, slot, t); ok {
			ext := s.ext[slot]
			if !out[k].Found || sim > best[k] || (sim == best[k] && ext < out[k].Match.ID) {
				out[k] = BatchResult{Match: Match{ID: ext, Similarity: sim}, Found: true}
				best[k] = sim
			}
		}
	}
	emit := func(k int, slot int32) {
		stats.Candidates++
		if vis[k].FirstVisit(slot) && s.alive[slot] {
			stats.Distinct++
			consider(k, slot)
		}
	}

	var refs []lsf.PostingRef
	var coldBuf []int32
	for r := range s.eng.reps {
		// The plan holds the whole batch's filter sets for this
		// repetition, with one path hash per (query, filter) shared by
		// every layer below: memtable key tables, segment bloom filters,
		// and frozen key tables.
		pr, err := p.await(r, cc)
		if err != nil {
			return out, stats, err
		}
		stats.Reps++
		for k := range sess {
			stats.Filters += pr.fss[k].Len()
			if pr.fss[k].Truncated {
				stats.Truncated++
			}
		}
		// Mutable layers: live memtable builders, probed per query in
		// filter order (they are small; blocking buys nothing here).
		for k := range sess {
			fs := &pr.fss[k]
			emitK := func(slot int32) bool { emit(k, slot); return true }
			for i, h := range pr.hashes[k] {
				if cc != nil && cc.Check() {
					return out, stats, cc.Err()
				}
				path := fs.Path(i)
				s.mem.each(r, h, path, emitK)
				for _, mt := range s.flushing {
					mt.each(r, h, path, emitK)
				}
			}
		}
		// Frozen segments: visit each once for the whole batch; per
		// query, resolve all bucket probes first, then walk the posting
		// spans in ascending arena offset. The segment bloom filter
		// screens each probe; for a cold segment a skip avoids touching
		// the mapping at all.
		for _, g := range s.segs {
			ix := g.reps[r]
			for k := range sess {
				if cc != nil && cc.Check() {
					return out, stats, cc.Err()
				}
				fs := &pr.fss[k]
				refs = refs[:0]
				for i, h := range pr.hashes[k] {
					if g.bloom != nil {
						stats.BloomProbes++
						if !g.bloom.mayContain(h) {
							stats.BloomSkips++
							continue
						}
					}
					if ref, ok := ix.PathRefHash(h, fs.Path(i)); ok && ref.Len > 0 {
						refs = append(refs, ref)
					}
				}
				slices.SortFunc(refs, func(a, b lsf.PostingRef) int {
					return cmp.Compare(a.Off, b.Off)
				})
				for _, ref := range refs {
					for _, lid := range ix.RefIDsBuf(ref, &coldBuf) {
						emit(k, g.slots[lid])
					}
				}
			}
		}
	}
	for k := range sess {
		if out[k].Found || !p.allTruncated(k) {
			continue
		}
		stats.FellBack++
		if err := s.scanLive(vis[k], cc, func(slot int32) bool { consider(k, slot); return true }); err != nil {
			return out, stats, err
		}
	}
	return out, stats, nil
}
