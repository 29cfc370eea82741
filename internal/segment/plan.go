package segment

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"skewsim/internal/bitvec"
	"skewsim/internal/faultinject"
	"skewsim/internal/lsf"
)

// Engines is the fixed set of repetition engines an index runs, one
// lsf.Engine per Config.Params entry. Indexes built over the same
// Engines (Config.Engines) generate identical filter sets, so one query
// Plan serves all of them: the shard router builds its Engines once and
// every shard runs on it.
type Engines struct {
	reps  []*lsf.Engine
	plans sync.Pool // *Plan, for the indexes' own entry points
}

// NewEngines builds the engines cfg describes: cfg.Engines itself when
// set, otherwise one engine per cfg.Params entry, sized for cfg.N.
func NewEngines(cfg Config) (*Engines, error) {
	if cfg.Engines != nil {
		return cfg.Engines, nil
	}
	cfg = cfg.withDefaults()
	if len(cfg.Params) == 0 {
		return nil, errors.New("segment: Config.Params must supply at least one repetition engine")
	}
	e := &Engines{reps: make([]*lsf.Engine, len(cfg.Params))}
	for r, p := range cfg.Params {
		eng, err := lsf.NewEngine(cfg.N, p)
		if err != nil {
			return nil, fmt.Errorf("segment: repetition %d: %w", r, err)
		}
		e.reps[r] = eng
	}
	return e, nil
}

// plan takes a pooled Plan for qs, for an index's own entry points.
func (e *Engines) plan(qs ...bitvec.Vector) *Plan {
	p, _ := e.plans.Get().(*Plan)
	if p == nil {
		p = NewPlan(e)
	}
	p.Reset(qs...)
	return p
}

func (e *Engines) release(p *Plan) {
	p.Reset()
	e.plans.Put(p)
}

// Repetition states within a Plan. A search claims an open
// repetition by moving it to repBusy, and leaves it repDone, or open
// again when its computation was cut short.
const (
	repOpen int32 = iota
	repBusy
	repDone
)

// planRep is one repetition of a Plan: every query's filter set and
// path hashes, written by the search that claimed it and read-only
// once state is repDone.
type planRep struct {
	state  atomic.Int32
	fss    []lsf.FilterSet // per query
	hashes [][]uint64      // per query, hashPath of each filter
}

// Plan is one request's query plan: for each repetition, the filter
// sets F(q) and path hashes of every query in the request. Each
// repetition is computed lazily, exactly once, by the first search
// that needs it — any shard's, since every shard runs on the same
// Engines — and shared read-only by all the others. A search that
// finds its repetition in progress plans the next unclaimed one instead,
// and failing that yields while polling its CancelCheck: a goroutine
// wake-up costs far more than the wait. A computation cut short by its
// CancelCheck leaves the repetition open for a live sibling to claim.
//
// The plan also owns the result slots of every Search over it, so a
// warmed plan serves a request without allocating.
//
// A Plan is reusable: Reset starts the next request on the same arenas.
// Reset must not run while a search may still use the plan, or while
// its results are still read.
type Plan struct {
	eng  *Engines
	qs   []bitvec.Vector
	reps []planRep

	mu   sync.Mutex
	outs [][]Result // result arenas, the first used of them handed out
	used int
}

// NewPlan returns an empty plan over e's engines.
func NewPlan(e *Engines) *Plan {
	return &Plan{eng: e, reps: make([]planRep, len(e.reps))}
}

// Reset forgets every computed repetition and plans qs instead, keeping
// the arenas. Reset() with no queries drops the plan's references to the
// previous request's vectors.
func (p *Plan) Reset(qs ...bitvec.Vector) {
	clear(p.qs)
	p.qs = append(p.qs[:0], qs...)
	for r := range p.reps {
		p.reps[r].state.Store(repOpen)
	}
	p.mu.Lock()
	p.used = 0
	p.mu.Unlock()
}

// results hands out one Search's n result slots, empty, valid until the
// next Reset.
func (p *Plan) results(n int) []Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used == len(p.outs) {
		p.outs = append(p.outs, nil)
	}
	out := slices.Grow(p.outs[p.used][:0], n)[:n]
	for i := range out {
		out[i] = Result{Matches: out[i].Matches[:0]}
	}
	p.outs[p.used] = out
	p.used++
	return out
}

// await returns repetition r once it is computed, computing it (or,
// while a sibling is, a later repetition) itself. The error is cc's,
// when cc tripped before r was available.
func (p *Plan) await(r int, cc *lsf.CancelCheck) (*planRep, error) {
	pr := &p.reps[r]
	for {
		switch pr.state.Load() {
		case repDone:
			return pr, nil
		case repOpen:
			if pr.state.CompareAndSwap(repOpen, repBusy) && !p.compute(r, cc) {
				return nil, cc.Err()
			}
		default:
			if p.planAhead(r, cc) {
				if err := cc.Err(); err != nil {
					return nil, err
				}
				continue
			}
			if cc.Check() {
				return nil, cc.Err()
			}
			runtime.Gosched()
		}
	}
}

// planAhead claims and computes the first open repetition after r,
// reporting whether there was one.
func (p *Plan) planAhead(r int, cc *lsf.CancelCheck) bool {
	for j := r + 1; j < len(p.reps); j++ {
		if pr := &p.reps[j]; pr.state.Load() == repOpen && pr.state.CompareAndSwap(repOpen, repBusy) {
			p.compute(j, cc)
			return true
		}
	}
	return false
}

// compute fills claimed repetition r and publishes it, or reopens it
// and reports false when cc trips first.
func (p *Plan) compute(r int, cc *lsf.CancelCheck) bool {
	pr := &p.reps[r]
	eng := p.eng.reps[r]
	nq := len(p.qs)
	if cap(pr.fss) < nq {
		pr.fss = make([]lsf.FilterSet, nq)
		pr.hashes = make([][]uint64, nq)
	}
	pr.fss, pr.hashes = pr.fss[:nq], pr.hashes[:nq]
	for k, q := range p.qs {
		fs := &pr.fss[k]
		fs.Reset()
		eng.FiltersIntoCancel(q, fs, cc)
		if cc.Err() != nil {
			pr.state.Store(repOpen)
			return false
		}
		h := pr.hashes[k][:0]
		for i := 0; i < fs.Len(); i++ {
			h = append(h, hashPath(fs.Path(i)))
		}
		pr.hashes[k] = h
	}
	pr.state.Store(repDone)
	if faultinject.Enabled() {
		faultinject.Fire(faultinject.SegmentPlanned, r, nq)
	}
	return true
}

// allTruncated reports whether every repetition of query k hit the
// filter budget. Valid once every repetition has been awaited.
func (p *Plan) allTruncated(k int) bool {
	for r := range p.reps {
		if !p.reps[r].fss[k].Truncated {
			return false
		}
	}
	return true
}
