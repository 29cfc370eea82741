package segment

import (
	"slices"
	"sync"

	"skewsim/internal/bitvec"
	"skewsim/internal/lsf"
	"skewsim/internal/verify"
)

// Mode selects what a search answers for each query, among the
// candidates at or above the query's threshold.
type Mode uint8

const (
	ModeBest  Mode = iota // its most similar candidate
	ModeFirst             // some candidate, stopping at the first to pass
	ModeTopK              // its K most similar, with positive similarity

	modeCandidates // every candidate's slot, unverified (Candidates)
)

// Request is one search: a batch of queries (a single query is a batch
// of one) and the mode that answers them.
type Request struct {
	// Sessions holds one verification session per query, in the order
	// of the Plan's queries. Verification is read-only, so a session
	// may serve concurrent searches of several shards.
	Sessions []*verify.Session
	// Thresholds, when non-nil, holds each query's minimum similarity.
	Thresholds []float64
	Mode       Mode
	// K bounds each list in ModeTopK. Nothing is sized by it: a list
	// grows with the candidates that pass and is cut back to K.
	K int
}

// Result is one query's answer: its match in modes first and best, its
// ranked list in mode topk (where Found reports a non-empty list).
type Result struct {
	Match   Match
	Found   bool
	Matches []Match
}

// probeBlock is how many of one query's paths are probed through every
// layer before the next: each frozen segment resolves a block's paths
// to posting spans back to back, then walks the spans, as lsf's blocked
// traversal does. Mode first probes path by path instead: a block
// resolved ahead of its first passing candidate is wasted work.
const probeBlock = 8

// searchState is the pooled per-search scratch (a probe block's
// resolved spans live on the stack, in probe).
type searchState struct {
	vis   []*lsf.Visited // per query
	sinks []sink         // per query
	cold  []int32        // decode scratch for cold compressed segments
	cands []int32        // modeCandidates output
}

// sink is one query's running answer state beside its Result slot.
type sink struct {
	t     float64 // the query's threshold (-1: none)
	floor float64 // mode topk: the K-th similarity once K are kept
	done  bool    // mode first: the query has its match
}

var searchStates = sync.Pool{New: func() any { return new(searchState) }}

// search is one Search in flight.
type search struct {
	s     *SegmentedIndex
	req   *Request
	st    *searchState
	out   []Result
	stats QueryStats
	left  int // queries still without their mode-first match
}

// Search answers req by the paper's query procedure, one loop for every
// mode and batch size: for each repetition and query it takes F(q) and
// the path hashes from the plan p and probes the paths a block at a
// time through every layer — the active and flushing memtables, then
// each frozen segment behind its bloom filter. Candidates are
// deduplicated per query through one epoch-stamped visited set,
// tombstones are masked, and each distinct live candidate goes to the
// mode's sink. A mode-first query stops at its match, and the search
// once every query has one. A query that found nothing, every
// repetition of which truncated, is answered by an exact scan of the
// live slots (as core.Index.Query does). The search holds the read lock
// throughout: the whole batch sees one snapshot.
//
// p must plan the sessions' queries, in order, over this index's
// engines; the results are owned by p and valid until its next Reset.
// Answers do not depend on the probe order: similarity descending, ties
// to the lowest external id. cc, when non-nil, is polled while a
// repetition is awaited and once per path; the error is non-nil
// exactly when it tripped (a context error, or lsf.ErrStopped), and the
// results gathered so far come with it. Stats: Reps and Segments count
// once per search, the rest sum over the queries; with metrics attached
// they are observed once per search.
func (s *SegmentedIndex) Search(cc *lsf.CancelCheck, p *Plan, req Request) ([]Result, QueryStats, error) {
	nq := len(req.Sessions)
	if req.Thresholds != nil && len(req.Thresholds) != nq {
		panic("segment: Search thresholds length does not match sessions")
	}
	if p.eng != s.eng || len(p.qs) != nq {
		panic("segment: Search plan made over other engines or queries")
	}
	out := p.results(nq)
	if nq == 0 || req.Mode == ModeTopK && req.K <= 0 {
		return out, QueryStats{}, nil
	}
	st := searchStates.Get().(*searchState)
	defer searchStates.Put(st)
	stats, err := s.search(cc, p, &req, st, out)
	return out, stats, err
}

// Candidates returns the distinct live candidate slots for q over all
// repetitions and layers. Together with Data it satisfies
// join.CandidateSource, keeping the join driver the integration seam:
// a SegmentedIndex drops into join.Run/RunParallel over a quiescent
// index. The join driver captures Data() once up front, so concurrent
// inserts during a join could yield candidate slots beyond that
// snapshot — run joins with writes paused (queries are fine).
func (s *SegmentedIndex) Candidates(q bitvec.Vector) []int32 {
	slots, _ := s.candidates(q)
	return slots
}

// CandidatesExt is Candidates in the external id space, with stats.
func (s *SegmentedIndex) CandidatesExt(q bitvec.Vector) ([]int64, QueryStats) {
	slots, stats := s.candidates(q)
	ids := make([]int64, len(slots))
	s.mu.RLock()
	for i, slot := range slots {
		ids[i] = s.ext[slot]
	}
	s.mu.RUnlock()
	return ids, stats
}

// candidates runs the search loop over q in modeCandidates.
func (s *SegmentedIndex) candidates(q bitvec.Vector) ([]int32, QueryStats) {
	p := s.eng.plan(q)
	defer s.eng.release(p)
	st := searchStates.Get().(*searchState)
	defer searchStates.Put(st)
	st.cands = st.cands[:0]
	stats, _ := s.search(nil, p, &Request{Mode: modeCandidates}, st, p.results(1))
	return slices.Clone(st.cands), stats
}

// search is the loop behind Search and candidates; out has one slot
// per query of p.
func (s *SegmentedIndex) search(cc *lsf.CancelCheck, p *Plan, req *Request, st *searchState, out []Result) (QueryStats, error) {
	x := search{s: s, req: req, st: st, out: out, left: len(out)}
	if m := s.cfg.Metrics; m != nil {
		defer func() { m.observeSearch(&x.stats, len(out)) }()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	x.stats.Segments = len(s.segs)
	st.sinks = st.sinks[:0]
	for k := range out {
		sk := sink{t: -1}
		if req.Thresholds != nil {
			sk.t = req.Thresholds[k]
		}
		st.sinks = append(st.sinks, sk)
		st.vis = append(st.vis, s.visitPool.Get(len(s.vecs)))
	}
	defer func() {
		for _, v := range st.vis {
			s.visitPool.Put(v)
		}
		clear(st.vis)
		st.vis = st.vis[:0]
	}()
	err := x.run(cc, p)
	if err == nil {
		err = x.fallBack(cc, p)
	}
	if req.Mode == ModeTopK {
		for k := range out {
			out[k].Matches = x.cut(out[k].Matches)
		}
	}
	return x.stats, err
}

// run is the repetition loop. It returns early, with a nil error, once
// every query of a mode-first search has its match.
func (x *search) run(cc *lsf.CancelCheck, p *Plan) error {
	sinks, block := x.st.sinks, probeBlock
	if x.req.Mode == ModeFirst {
		block = 1
	}
	for r := range x.s.eng.reps {
		pr, err := p.await(r, cc)
		if err != nil {
			return err
		}
		x.stats.Reps++
		for k := range sinks {
			if sinks[k].done {
				continue
			}
			x.stats.Filters += pr.fss[k].Len()
			if pr.fss[k].Truncated {
				x.stats.Truncated++
			}
			for base := 0; base < len(pr.hashes[k]) && !sinks[k].done; base += block {
				if err := x.probe(cc, r, pr, k, base, min(base+block, len(pr.hashes[k]))); err != nil {
					return err
				}
			}
			if x.left == 0 {
				return nil
			}
		}
	}
	return nil
}

// probe streams the candidates of query k's paths [from, to) in
// repetition r through every layer, until the query is done: the live
// memtable builders path by path, then each frozen segment, whose
// resolved posting spans are walked in filter order. The segment bloom
// filter screens each probe; for a cold segment a skip avoids touching
// the mapping at all. cc is checked once per path, so a sibling shard's
// stop signal is seen within one CancelCheck stride of paths.
func (x *search) probe(cc *lsf.CancelCheck, r int, pr *planRep, k, from, to int) error {
	s, fs, hashes := x.s, &pr.fss[k], pr.hashes[k]
	emit := func(slot int32) bool { return x.emit(k, slot) }
	for i := from; i < to; i++ {
		if cc != nil && cc.Check() {
			return cc.Err()
		}
		path := fs.Path(i)
		if !s.mem.each(r, hashes[i], path, emit) {
			return nil
		}
		for _, mt := range s.flushing {
			if !mt.each(r, hashes[i], path, emit) {
				return nil
			}
		}
	}
	var buf [probeBlock]lsf.PostingRef
	for _, g := range s.segs {
		ix, refs := g.reps[r], buf[:0]
		for i := from; i < to; i++ {
			if g.bloom != nil {
				x.stats.BloomProbes++
				if !g.bloom.mayContain(hashes[i]) {
					x.stats.BloomSkips++
					continue
				}
			}
			if ref, ok := ix.PathRefHash(hashes[i], fs.Path(i)); ok && ref.Len > 0 {
				refs = append(refs, ref)
			}
		}
		for _, ref := range refs {
			for _, lid := range ix.RefIDsBuf(ref, &x.st.cold) {
				if !x.emit(k, g.slots[lid]) {
					return nil
				}
			}
		}
	}
	return nil
}

// fallBack answers, by an exact scan of the live slots the filters did
// not reach, every query without an answer whose every repetition
// truncated. Candidate sets never fall back: they are the filters'
// answer, as in core.
func (x *search) fallBack(cc *lsf.CancelCheck, p *Plan) error {
	if x.req.Mode == modeCandidates {
		return nil
	}
	s := x.s
	for k := range x.out {
		if x.out[k].Found || !p.allTruncated(k) {
			continue
		}
		x.stats.FellBack++
		vis := x.st.vis[k]
		for slot := range int32(len(s.vecs)) {
			if cc != nil && cc.Check() {
				return cc.Err()
			}
			if s.alive[slot] && vis.FirstVisit(slot) && !x.consider(k, slot) {
				break
			}
		}
	}
	return nil
}

// emit counts one candidate occurrence of query k and hands a first
// visit of a live slot to the sink. It reports false once the query is
// done.
func (x *search) emit(k int, slot int32) bool {
	x.stats.Candidates++
	if !x.st.vis[k].FirstVisit(slot) || !x.s.alive[slot] {
		return true
	}
	x.stats.Distinct++
	return x.consider(k, slot)
}

// consider is query k's sink: it verifies slot under the mode and
// records it when it qualifies. It reports false once the query is done
// (mode first, at its match).
func (x *search) consider(k int, slot int32) bool {
	s, sk, res := x.s, &x.st.sinks[k], &x.out[k]
	switch x.req.Mode {
	case ModeFirst:
		if sim, ok := x.req.Sessions[k].AtLeast(&s.packed, s.vecs, slot, sk.t); ok {
			res.Match, res.Found = Match{ID: s.ext[slot], Similarity: sim}, true
			sk.done = true
			x.left--
			return false
		}
	case ModeBest:
		// Verification prunes at the running best: a candidate replaces
		// it with a higher similarity, or an equal one under a lower id.
		ses, id := x.req.Sessions[k], s.ext[slot]
		var sim float64
		var ok bool
		switch {
		case !res.Found:
			sim, ok = ses.AtLeast(&s.packed, s.vecs, slot, sk.t)
		case id < res.Match.ID:
			sim, ok = ses.AtLeast(&s.packed, s.vecs, slot, res.Match.Similarity)
		default:
			sim, ok = ses.MoreThan(&s.packed, s.vecs, slot, res.Match.Similarity)
		}
		if ok {
			res.Match, res.Found = Match{ID: id, Similarity: sim}, true
		}
	case ModeTopK:
		if sim, ok := x.req.Sessions[k].AtLeast(&s.packed, s.vecs, slot, max(sk.t, sk.floor)); ok && sim > 0 {
			res.Matches = append(res.Matches, Match{ID: s.ext[slot], Similarity: sim})
			res.Found = true
			// Keep the list k-bounded: at 2K entries cut it back to the top
			// K, whose last similarity becomes the floor later candidates
			// must reach (ties at the floor may still win on id).
			if len(res.Matches)-x.req.K >= x.req.K {
				res.Matches = x.cut(res.Matches)
				sk.floor = res.Matches[len(res.Matches)-1].Similarity
			}
		}
	case modeCandidates:
		x.st.cands = append(x.st.cands, slot)
	}
	return true
}

// cut ranks a top-k list and keeps its first K entries.
func (x *search) cut(ms []Match) []Match {
	SortMatches(ms)
	return ms[:min(len(ms), x.req.K)]
}
