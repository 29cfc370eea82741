package server

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"

	"skewsim/internal/bitvec"
	"skewsim/internal/faultinject"
	"skewsim/internal/lsf"
	"skewsim/internal/segment"
	"skewsim/internal/verify"
)

// Deadline-aware query fan-out. The *Context query methods thread the
// caller's context through admission (a queue-full or expired wait
// rejects before any work), into every shard's traversal (cooperative
// cancellation checkpoints) and into the aggregation (fanOut): a single
// stalled shard degrades result completeness instead of availability.

// ShardError reports one shard's failure within a fan-out, including
// where the shard was when it failed: "running" when a goroutine had
// started the traversal (or returned an error from it), "queued" when
// the deadline expired before any goroutine started the shard. The
// distinction separates a slow shard (running) from a starved worker
// pool (queued) when diagnosing partial results.
type ShardError struct {
	Shard int    `json:"shard"`
	Stage string `json:"stage,omitempty"`
	Err   string `json:"error"`
}

// ShardError stages.
const (
	StageQueued  = "queued"
	StageRunning = "running"
)

// Fanout reports how a query's shard fan-out went: how many shards
// contributed to the merged answer and what happened to the rest.
// Returned alongside the (possibly partial) results of every *Context
// query method.
type Fanout struct {
	// Shards is the fan-out width (the server's shard count).
	Shards int
	// Answered counts shards whose results are merged into the answer,
	// including the shards a mode-first query cut short or skipped
	// because a sibling had already found a match.
	Answered int
	// Errs details the failed shards, ascending by shard.
	Errs []ShardError

	firstErr error
}

// Complete reports whether every shard answered.
func (f *Fanout) Complete() bool { return f.Answered == f.Shards }

// Partial reports whether the answer merges some but not all shards —
// a usable, degraded result.
func (f *Fanout) Partial() bool { return f.Answered > 0 && f.Answered < f.Shards }

// Err returns nil when the fan-out produced a usable answer (complete
// or partial) and the reason otherwise: the admission rejection
// (ErrOverloaded, ErrShed), the context error when every shard missed
// the deadline, or the first shard failure.
func (f *Fanout) Err() error {
	if f.Answered == 0 {
		return f.firstErr
	}
	return nil
}

func (f *Fanout) fail(i int, err error, stage string) {
	f.Errs = append(f.Errs, ShardError{Shard: i, Stage: stage, Err: err.Error()})
	if f.firstErr == nil {
		f.firstErr = err
	}
}

// rejected builds the Fanout for a request that never got past
// admission: zero shards answered, every query slot unused.
func (s *Server) rejected(err error) *Fanout {
	if m := s.metrics; m != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			m.RejectedQueueFull.Inc()
		case errors.Is(err, ErrShed):
			m.RejectedShed.Inc()
		}
	}
	return &Fanout{Shards: len(s.shards), firstErr: err}
}

// Shard states within one fan-out. A shard is claimed off the run's
// counter while still shardQueued; the goroutine that claimed it moves
// it to exactly one of the later states.
const (
	shardQueued   int32 = iota
	shardRunning        // traversal started, not yet returned
	shardAnswered       // results in the slot
	shardStopped        // answered: nothing found before a sibling's match
	shardFailed         // err in the slot, from the traversal
	shardExpired        // err in the slot: the deadline passed before it started
)

// shardSlot is one shard's share of a fanRun. The goroutine that claims
// the shard writes the result fields and then publishes state; the
// caller reads them only after loading a final state, and owns merged.
type shardSlot struct {
	state  atomic.Int32
	merged bool // set by the caller: the slot is part of the answer
	err    error
	match  segment.Match
	found  bool
	stats  segment.QueryStats
	list   []segment.Match       // top-k
	batch  []segment.BatchResult // batch
}

// shardWork runs one shard of r into its slot, sl.err included.
type shardWork func(r *fanRun, sl *shardSlot, sh *segment.SegmentedIndex)

// abandoned is added to fanRun.pending when the caller leaves at its
// deadline with helper-run shards outstanding: the helper whose decrement
// then reads exactly abandoned finished the last and inherits the release.
const abandoned = 1 << 30

// fanRun is one request's fan-out: the request and its query plan, the
// claim counter the caller and its helpers share, and a result slot per
// shard. Runs are pooled per server and recycled only when the last
// goroutine holding one lets go (refs), so an abandoned helper never
// sees its run — or the plan it may still be reading — reused.
type fanRun struct {
	s          *Server
	ctx        context.Context
	work       shardWork
	sess       []*verify.Session // one per query
	plan       *segment.Plan     // the queries' filter sets, shared by every shard
	threshold  float64
	thresholds []float64
	k          int

	next    atomic.Int32  // next unclaimed shard
	pending atomic.Int32  // unfinished shards (+ abandoned once the caller left)
	refs    atomic.Int32  // the caller plus its helpers
	stop    atomic.Bool   // mode first: some shard found a match
	wake    chan struct{} // cap 1: a helper finished the last shard
	slots   []shardSlot
}

// begin admits a request and hands it a run holding one verify session
// per query, or reports the rejection.
func (s *Server) begin(ctx context.Context, m bitvec.Measure, qs ...bitvec.Vector) (*fanRun, *Fanout) {
	if err := s.gate.acquire(ctx); err != nil {
		return nil, s.rejected(err)
	}
	r, _ := s.runs.Get().(*fanRun)
	if r == nil {
		r = &fanRun{s: s, wake: make(chan struct{}, 1), slots: make([]shardSlot, len(s.shards)), plan: segment.NewPlan(s.eng)}
	}
	r.ctx = ctx
	for _, q := range qs {
		r.sess = append(r.sess, verify.Acquire(m, q))
	}
	r.plan.Reset(qs...)
	return r, nil
}

// unref drops one goroutine's hold; the last one out clears the run
// (it must not pin the request's memory) and recycles it.
func (r *fanRun) unref() {
	if r.refs.Add(-1) != 0 {
		return
	}
	select {
	case <-r.wake: // sent after the caller had already seen pending == 0
	default:
	}
	for i := range r.slots {
		sl := &r.slots[i]
		sl.state.Store(shardQueued)
		sl.merged, sl.err, sl.found, sl.stats, sl.list, sl.batch = false, nil, false, segment.QueryStats{}, nil, nil
	}
	clear(r.sess)
	r.ctx, r.work, r.thresholds, r.sess = nil, nil, nil, r.sess[:0]
	r.plan.Reset()
	r.stop.Store(false)
	r.s.runs.Put(r)
}

// release returns the verify sessions and the admission slot: once,
// after the last shard finished, by the caller or the helper outliving it.
func (r *fanRun) release() {
	for _, ses := range r.sess {
		verify.Release(ses)
	}
	r.s.gate.release()
}

// runShard takes a claimed shard to its final state. The stall point
// lets the fault harness hold the shard exactly where a slow disk or a
// lock convoy would, whichever goroutine runs it.
func (r *fanRun) runShard(i int) {
	sl := &r.slots[i]
	// Shard 0 is the caller's, claimed before any helper exists, so it
	// always starts; a stop that beat it there cuts it short at its
	// traversal's first stop check.
	if i > 0 && r.stop.Load() {
		sl.state.Store(shardStopped)
		return
	}
	if sl.err = r.ctx.Err(); sl.err != nil {
		sl.state.Store(shardExpired)
		return
	}
	sl.state.Store(shardRunning)
	if faultinject.Enabled() {
		sl.err = faultinject.Fire(faultinject.ServerShardStall, r.ctx, i)
	}
	if sl.err == nil {
		r.work(r, sl, r.s.shards[i])
	}
	switch sl.err {
	case nil:
		sl.state.Store(shardAnswered)
	case lsf.ErrStopped:
		sl.state.Store(shardStopped)
	default:
		sl.state.Store(shardFailed)
	}
}

// drain runs shard i, then claims and runs shards until none are left
// unclaimed.
func (r *fanRun) drain(i int32) {
	n := int32(len(r.slots))
	for ; i < n; i = r.next.Add(1) - 1 {
		r.runShard(int(i))
		switch r.pending.Add(-1) {
		case 0:
			r.wake <- struct{}{} // never blocks: one send per run, drained before reuse
		case abandoned:
			r.release()
		}
	}
}

func (r *fanRun) help() { r.drain(r.next.Add(1) - 1); r.unref() }

// fanOut runs work on every shard and reports how it went. The calling
// goroutine claims shards off the same counter as its helpers, starting
// at once on shard 0: a one-shard server spawns nothing, a thin query is
// over before a helper has woken, a dense one runs min(workers, shards)
// wide. The caller parks only while a helper still holds a claimed
// shard, and not past ctx: it then leaves those shards to their helpers
// and returns the rest as a partial answer (its own shard is canceled
// cooperatively, within one lsf.CancelCheck stride). It must read only
// merged slots — an abandoned shard may still be writing its own — and
// unref the run when done.
func (r *fanRun) fanOut(work shardWork) *Fanout {
	s, n := r.s, len(r.slots)
	helpers := s.workers
	if helpers <= 0 {
		helpers = runtime.GOMAXPROCS(0)
	}
	helpers = min(helpers, n) - 1
	r.work = work
	r.next.Store(1) // shard 0 is the caller's, claimed before any helper starts
	r.pending.Store(int32(n))
	r.refs.Store(int32(1 + helpers))
	for h := 0; h < helpers; h++ {
		go r.help()
	}
	if helpers > 0 {
		// `go` leaves its goroutine in this P's runnext slot, which an idle
		// P steals only as a last resort, after a sleep: right for a
		// spawner about to block, tens of µs late for one that runs a shard.
		// A second spawn moves the helper to the stealable run queue.
		go func() {}()
	}
	r.drain(0)
	left := r.pending.Load()
	if left != 0 {
		select {
		case <-r.wake:
			left = 0
		case <-r.ctx.Done():
			left = r.pending.Add(abandoned) - abandoned
		}
	}
	if left == 0 {
		r.release()
	}
	f := &Fanout{Shards: n}
	var stopped int64
	for i := range r.slots {
		sl := &r.slots[i]
		switch sl.state.Load() {
		case shardStopped:
			stopped++
			fallthrough
		case shardAnswered:
			sl.merged = true
			f.Answered++
		case shardFailed:
			f.fail(i, sl.err, StageRunning)
		case shardExpired:
			f.fail(i, sl.err, StageQueued)
		case shardRunning:
			f.fail(i, r.ctx.Err(), StageRunning)
		default: // claimed by a helper that has yet to look at it
			f.fail(i, r.ctx.Err(), StageQueued)
		}
	}
	s.metrics.observeFanout(int64(left), stopped, f.Partial())
	return f
}

// QueryContext is Query under a deadline: admission-gated, canceled
// cooperatively inside every shard, degraded to the answering shards'
// merged match when some miss the deadline. The first shard to find a
// match stops its siblings, so the work — and the stats — end there, as
// the paper's query procedure does; which qualifying match is returned
// when several shards hold one is unspecified. The Fanout is never nil;
// its Err is non-nil exactly when there is no usable answer (rejected,
// or zero shards answered).
func (s *Server) QueryContext(ctx context.Context, q bitvec.Vector, threshold float64, m bitvec.Measure) (segment.Match, segment.QueryStats, bool, *Fanout) {
	return s.single(ctx, q, m, threshold, func(r *fanRun, sl *shardSlot, sh *segment.SegmentedIndex) {
		sl.match, sl.stats, sl.found, sl.err = sh.QueryPlan(lsf.NewStopCheck(r.ctx, &r.stop), r.plan, r.sess[0], r.threshold)
		if sl.found {
			r.stop.Store(true)
		}
	})
}

// QueryBestContext is QueryBest under a deadline (see QueryContext;
// every shard runs to its end).
func (s *Server) QueryBestContext(ctx context.Context, q bitvec.Vector, m bitvec.Measure) (segment.Match, segment.QueryStats, bool, *Fanout) {
	return s.single(ctx, q, m, 0, func(r *fanRun, sl *shardSlot, sh *segment.SegmentedIndex) {
		sl.match, sl.stats, sl.found, sl.err = sh.QueryBestPlan(lsf.NewCancelCheck(r.ctx), r.plan, r.sess[0])
	})
}

// better is the merge order of shard winners: similarity descending,
// ties to the lowest id.
func better(a, b segment.Match) bool {
	return a.Similarity > b.Similarity || (a.Similarity == b.Similarity && a.ID < b.ID)
}

// single runs a one-match mode and merges the shard winners that are
// part of the answer.
func (s *Server) single(ctx context.Context, q bitvec.Vector, m bitvec.Measure, threshold float64, work shardWork) (best segment.Match, agg segment.QueryStats, found bool, f *Fanout) {
	r, f := s.begin(ctx, m, q)
	if r == nil {
		return best, agg, false, f
	}
	defer r.unref()
	r.threshold = threshold
	f = r.fanOut(work)
	for i := range r.slots {
		sl := &r.slots[i]
		if !sl.merged {
			continue
		}
		agg.Merge(sl.stats)
		if sl.found && (!found || better(sl.match, best)) {
			best, found = sl.match, true
		}
	}
	return best, agg, found, f
}

// TopKContext is TopK under a deadline (see QueryContext). A partial
// fan-out returns the merged top-k of the answering shards.
func (s *Server) TopKContext(ctx context.Context, q bitvec.Vector, k int, m bitvec.Measure) ([]segment.Match, segment.QueryStats, *Fanout) {
	if k <= 0 {
		return nil, segment.QueryStats{}, &Fanout{Shards: len(s.shards), Answered: len(s.shards)}
	}
	r, f := s.begin(ctx, m, q)
	if r == nil {
		return nil, segment.QueryStats{}, f
	}
	defer r.unref()
	r.k = k
	f = r.fanOut(func(r *fanRun, sl *shardSlot, sh *segment.SegmentedIndex) {
		sl.list, sl.stats, sl.err = sh.TopKPlan(lsf.NewCancelCheck(r.ctx), r.plan, r.sess[0], r.k)
	})
	var agg segment.QueryStats
	var all []segment.Match
	for i := range r.slots {
		if sl := &r.slots[i]; sl.merged {
			agg.Merge(sl.stats)
			all = append(all, sl.list...)
		}
	}
	segment.SortMatches(all)
	if len(all) > k {
		all = all[:k]
	}
	return all, agg, f
}

// SearchBatchContext is SearchBatch under a deadline (see
// QueryContext): one admission slot covers the whole batch, and a
// partial fan-out merges each query's winners over the answering
// shards only.
func (s *Server) SearchBatchContext(ctx context.Context, qs []bitvec.Vector, thresholds []float64, m bitvec.Measure) ([]segment.BatchResult, segment.QueryStats, *Fanout) {
	if len(qs) == 0 {
		return nil, segment.QueryStats{}, &Fanout{Shards: len(s.shards), Answered: len(s.shards)}
	}
	r, f := s.begin(ctx, m, qs...)
	if r == nil {
		return nil, segment.QueryStats{}, f
	}
	defer r.unref()
	r.thresholds = thresholds
	f = r.fanOut(func(r *fanRun, sl *shardSlot, sh *segment.SegmentedIndex) {
		sl.batch, sl.stats, sl.err = sh.SearchBatchPlan(lsf.NewCancelCheck(r.ctx), r.plan, r.sess, r.thresholds)
	})
	out := make([]segment.BatchResult, len(qs))
	var agg segment.QueryStats
	for i := range r.slots {
		sl := &r.slots[i]
		if !sl.merged {
			continue
		}
		agg.Merge(sl.stats)
		for k, r := range sl.batch {
			if r.Found && (!out[k].Found || better(r.Match, out[k].Match)) {
				out[k] = r
			}
		}
	}
	return out, agg, f
}
