// Package segment turns the library's build-once indexes (the paper's
// §4 structure, static by construction) into an online serving
// structure: a SegmentedIndex accepts Insert/Delete while answering
// queries, LSM-style. Writes land in a small mutable memtable (one
// live lsf.Builder per repetition: the frozen layout's own pointer-free
// arenas, growing in append mode); full memtables rotate into a
// flushing list and a background worker freezes them into immutable
// CSR segments by one counting sort over those arenas (no replay, no
// re-hash); a compaction pass merges small segments and physically drops
// tombstoned vectors. Every query runs through one loop, Search: it
// takes F(q) per repetition engine from a query Plan (computed once per
// request, and shared by every index running the same Engines) and
// probes the memtables and every frozen segment, merging candidates
// through one epoch-stamped lsf.Visited set per query, so the layered
// structure answers exactly like a single static index over the live
// data (asserted differentially in the tests).
//
// Consistency model: a single RWMutex guards the index. Insert/Delete
// are atomic and immediately visible to queries that start after they
// return; a query sees one consistent snapshot (it holds the read lock
// for its whole traversal). Freezing and compaction move postings
// between layers without changing the visible candidate set: the
// memtable stays queryable in the flushing list until its CSR segment
// is installed, and deleted vectors are masked by the slot-level
// tombstone array until compaction rewrites their segment. Ids are
// never reused, including after Delete.
//
// Durability: attach a wal.Log (Recover / RecoverWAL) and every
// accepted write is journaled before the in-memory mutation, completed
// freezes persist checkpoint segment files that let the log truncate,
// and startup recovery replays the surviving records idempotently —
// see wal.go in this package and DESIGN.md "Durability".
//
// The repetition engines are fixed at construction (typically from
// core.EngineParams, so the segmented index runs the same SkewSearch
// scheme as the static core.Index); the stopping rule's n is the
// expected steady-state size. Re-estimating probabilities as the data
// drifts is a planned follow-up, not handled here.
package segment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/lsf"
	"skewsim/internal/mmapio"
	"skewsim/internal/verify"
	"skewsim/internal/wal"
)

// Config sizes a SegmentedIndex.
type Config struct {
	// Params configures one lsf engine per repetition (required). Use
	// core.EngineParams to get the paper's threshold schemes with
	// properly derived per-repetition seeds.
	Params []lsf.Params
	// N is the dataset size the engines are tuned for (default depth
	// caps). Defaults to 1 << 16. This does not bound the index.
	N int
	// Engines, when set, are prebuilt repetition engines (NewEngines over
	// this Params and N) to run instead of private ones. Indexes sharing
	// one Engines accept each other's query Plans.
	Engines *Engines
	// MemtableSize is the number of vectors a memtable accepts before it
	// rotates to the freeze queue. Defaults to 4096.
	MemtableSize int
	// MaxSegments triggers compaction: when more than this many frozen
	// segments exist, the background worker merges the two smallest
	// (dropping tombstoned vectors) until at or under the limit.
	// Defaults to 4.
	MaxSegments int
	// Metrics, when non-nil, receives freeze/compaction counts and
	// durations plus per-query work histograms (see NewMetrics). One
	// Metrics instance may be shared across shards. Nil disables
	// instrumentation (the query path then pays one nil compare).
	Metrics *Metrics
	// StorageDir, when set, is where frozen segments persist as SKSEG1
	// container files (see storage.go) and the root of the beyond-RAM
	// tier: segments past the resident budget drop their heap arenas
	// and serve zero-copy from the mapped file. Empty keeps the
	// pre-PR-10 behaviour — segment files live in the WAL directory
	// when a WAL is attached, nowhere otherwise, and nothing demotes.
	StorageDir string
	// ResidentBytes caps the heap bytes of frozen posting arenas:
	// newest segments stay resident until the budget is spent, older
	// file-backed ones demote to their mapping. 0 means unlimited
	// (everything resident). Adjustable at runtime (SetResidentBudget).
	ResidentBytes int64
	// CompressPostings selects delta+varint posting compression inside
	// segment files. Cold compressed segments decode posting lists on
	// read; resident ones decode once at promotion. Candidate sets are
	// identical either way (asserted by the storage tests).
	CompressPostings bool
}

// withDefaults fills unset fields. Non-positive values mean "default":
// a negative MaxSegments would otherwise make needsCompact true with an
// empty segment list and panic the worker.
func (c *Config) withDefaults() Config {
	out := *c
	if out.N <= 0 {
		out.N = 1 << 16
	}
	if out.MemtableSize <= 0 {
		out.MemtableSize = 4096
	}
	if out.MaxSegments <= 0 {
		out.MaxSegments = 4
	}
	return out
}

// frozenSeg is one immutable segment: a local data slice indexed by the
// per-repetition CSR indexes, plus the mapping from local ids back to
// index-wide slots.
type frozenSeg struct {
	slots []int32 // local id -> slot
	reps  []*lsf.Index
	// walSeq is the sequence number of the segment file persisting this
	// segment (ckpt-<seq>.seg), 0 when the segment has no durable side
	// file (no storage configured, or restored from a snapshot rather
	// than a segment file).
	walSeq uint64

	// bloom is the segment's path-key filter (see bloom.go), consulted
	// before any repetition probe; nil (snapshot restores) means always
	// probe. Immutable once the segment is visible.
	bloom *bloomFilter
	// Tiering state, owned by the worker goroutine; reps/mapping swaps
	// happen under the index write lock. path is the SKSEG1 file ("" =
	// memory only, not demotable); mapping is non-nil exactly while the
	// segment serves cold (its reps are zero-copy views into it);
	// arenaBytes is the resident heap cost of the posting arenas, the
	// unit Config.ResidentBytes budgets; tierFailed pins the segment in
	// its current tier after a failed move (set once, never cleared —
	// compaction replaces the segment wholesale).
	path       string
	mapping    *mmapio.Mapping
	arenaBytes int64
	tierFailed bool
}

func (g *frozenSeg) size() int { return len(g.slots) }

// Match is one query result.
type Match struct {
	// ID is the external id the vector was inserted under.
	ID int64
	// Similarity under the verification measure.
	Similarity float64
}

// QueryStats aggregates the work of one query across repetitions and
// layers, extending lsf.QueryStats with the segment dimension.
type QueryStats struct {
	Reps        int // repetition engines traversed
	Filters     int // Σ |F(q)| over repetitions
	Candidates  int // candidate occurrences over all layers
	Distinct    int // distinct live candidates streamed
	Truncated   int // repetitions whose filter generation hit the budget
	Segments    int // frozen segments consulted
	BloomProbes int // per-(path, segment) bloom filter checks
	BloomSkips  int // segment probes skipped by the bloom filter
	// FellBack counts queries answered by an exact scan of the live
	// slots: every repetition truncated and the filters found nothing.
	FellBack int `json:",omitempty"`
}

// Merge accumulates another query's stats into s (the shard router sums
// per-shard work into one record; Segments adds up because shards hold
// disjoint segment sets).
func (s *QueryStats) Merge(o QueryStats) {
	s.Reps += o.Reps
	s.Filters += o.Filters
	s.Candidates += o.Candidates
	s.Distinct += o.Distinct
	s.Truncated += o.Truncated
	s.Segments += o.Segments
	s.BloomProbes += o.BloomProbes
	s.BloomSkips += o.BloomSkips
	s.FellBack += o.FellBack
}

// IndexStats is a point-in-time size report.
type IndexStats struct {
	Live         int   // inserted minus deleted
	Total        int   // slots ever allocated (deletes keep their slot)
	Memtable     int   // vectors in the active memtable
	Flushing     int   // vectors in rotated, not-yet-frozen memtables
	Segments     int   // frozen segment count
	SegmentSizes []int // per-segment vector counts (tombstones included)
	Freezes      int64 // memtables frozen since construction
	Compactions  int64 // merges performed since construction
	// Storage tier sizes: segments serving from heap arenas vs from
	// their mapped file, and the heap bytes of the resident posting
	// arenas (the quantity Config.ResidentBytes caps).
	ResidentSegments int
	ColdSegments     int
	ResidentBytes    int64
	// WAL reports the attached write-ahead log's sizes; nil when the
	// index runs without durability.
	WAL *wal.Stats `json:",omitempty"`
}

// SegmentedIndex is a mutable, concurrently-usable index. The zero value
// is not usable; construct with New and release with Close.
type SegmentedIndex struct {
	cfg Config
	eng *Engines

	mu         sync.RWMutex
	cond       *sync.Cond    // signalled on any state change the worker or waiters watch
	workerDone chan struct{} // closed when the background worker has exited

	mem      *memtable
	flushing []*memtable
	segs     []*frozenSeg

	// Dense per-slot state. A slot is allocated per insert and never
	// reused; vecs entries are immutable once written.
	vecs  []bitvec.Vector
	alive []bool
	ext   []int64 // slot -> external id
	// packed mirrors vecs slot for slot: the word-packed verification
	// form of every vector, appended under the write lock at insert time
	// so no query ever re-packs a data vector. Shared by every layer
	// (memtable, flushing, frozen segments) since postings resolve to
	// index-wide slots before verification.
	packed bitvec.PackedSet

	slotOf   map[int64]int32 // external id -> slot (live and dead)
	nextAuto int64           // next auto-assigned external id
	live     int
	// deadExt lists every external id ever tombstoned, in no particular
	// order. Checkpoint segment files persist a snapshot of it so delete
	// records at or below the checkpoint fence can be truncated from the
	// WAL without losing their tombstones. unknownDead dedups the ids in
	// it that have no slot (their vectors were compacted away before a
	// crash) — they must keep riding every future dead list, or a later
	// generation could re-derive nextAuto below them and reuse the id.
	deadExt     []int64
	unknownDead map[int64]struct{}
	// memMaxLSN is the WAL LSN of the newest insert record whose
	// in-memory apply has completed — the only safe checkpoint fence.
	// (The log's own high-water mark would over-fence during a batch,
	// whose records are all appended before the first apply.)
	memMaxLSN uint64
	// appliedLSN is the WAL LSN of the newest record of ANY kind whose
	// in-memory apply has completed: unlike memMaxLSN it advances on
	// deletes too, and during recovery it tracks the replay position.
	// It is the replication cut point — a snapshot taken now plus the
	// log from appliedLSN+1 reconstructs this state exactly, because a
	// record appended but not yet applied is above it and gets shipped.
	appliedLSN uint64

	compacting  bool
	persisting  bool // worker is writing a checkpoint segment file
	tiering     bool // worker is demoting or promoting a segment
	recovering  bool // WAL recovery in progress: worker pauses (see RecoverWAL)
	freezes     int64
	compactions int64
	closed      bool

	// wal, when attached (Recover), is appended to before every memtable
	// mutation; segSeq numbers the checkpoint segment files freezes and
	// compactions persist next to the log. crashHook is the fault-
	// injection seam the crash-recovery tests SIGKILL the process from;
	// it is a no-op outside tests.
	wal       *wal.Log
	segSeq    uint64
	crashHook func(point string)

	visitPool lsf.VisitedPool
	fsPool    sync.Pool
}

// New builds an empty index and starts its background freeze/compaction
// worker. Callers must Close it to stop the worker.
func New(cfg Config) (*SegmentedIndex, error) {
	cfg = cfg.withDefaults()
	eng, err := NewEngines(cfg)
	if err != nil {
		return nil, err
	}
	s := &SegmentedIndex{
		cfg:        cfg,
		eng:        eng,
		mem:        newMemtable(eng, nil),
		slotOf:     make(map[int64]int32),
		segSeq:     1,
		crashHook:  func(string) {},
		workerDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.worker()
	return s, nil
}

// Close stops the background worker — waiting for the freeze or
// compaction it is in the middle of, so nothing lands in the storage
// directory after Close returns — and, when a WAL is attached, syncs
// and closes it. The index stays queryable but no further freezes or
// compactions run, and — with a WAL — further Insert/Delete calls fail
// rather than accept writes that can no longer be logged. Safe to call
// twice.
func (s *SegmentedIndex) Close() {
	s.mu.Lock()
	s.closed = true
	w := s.wal
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.workerDone
	if w != nil {
		w.Close()
	}
}

// Repetitions returns the number of repetition engines.
func (s *SegmentedIndex) Repetitions() int { return len(s.eng.reps) }

// Insert adds v under the next auto-assigned external id and returns it.
// Do not mix with InsertWithID unless caller-chosen ids stay out of the
// auto range [0, 1, 2, ...]. Filters are computed once; losing an
// id-allocation race to a concurrent inserter retries only the cheap
// install step with a re-read counter. An ErrNotDurable error comes
// WITH the assigned id: the insert is live, only its fsync failed.
func (s *SegmentedIndex) Insert(v bitvec.Vector) (int64, error) {
	fss := s.computeFilters(v)
	defer s.releaseFilters(fss)
	for {
		s.mu.RLock()
		id := s.nextAuto
		s.mu.RUnlock()
		err := s.install(id, v, fss)
		if err == nil || errors.Is(err, ErrNotDurable) {
			return id, err
		}
		if !errors.Is(err, ErrIDTaken) {
			return 0, err
		}
	}
}

// ErrIDTaken reports an InsertWithID id that was already used (live or
// tombstoned). Callers that allocate ids optimistically (Insert, the
// shard router) match it to retry with a fresh id.
var ErrIDTaken = errors.New("segment: id already used")

// ErrNotDurable wraps a WAL commit failure on a write that WAS applied:
// the vector is live in the index and its record reached the kernel,
// but the configured fsync did not complete. Insert still returns the
// assigned id alongside it — retrying would duplicate the vector.
var ErrNotDurable = errors.New("segment: applied but not durable")

// NextID returns the lowest external id never used by this index: the
// auto-assignment high-water mark. The shard router uses the max over
// shards to re-seed its id counter after a snapshot restore.
func (s *SegmentedIndex) NextID() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextAuto
}

// InsertWithID adds v under a caller-chosen external id. The id must
// never have been used before, including by a since-deleted vector.
// Returns ErrIDTaken (wrapped) otherwise.
func (s *SegmentedIndex) InsertWithID(id int64, v bitvec.Vector) error {
	// Cheap pre-check before the expensive filter generation; the
	// authoritative check re-runs under the write lock in install.
	s.mu.RLock()
	_, taken := s.slotOf[id]
	s.mu.RUnlock()
	if taken {
		return fmt.Errorf("%w: %d", ErrIDTaken, id)
	}
	fss := s.computeFilters(v)
	defer s.releaseFilters(fss)
	return s.install(id, v, fss)
}

// computeFilters runs filter generation for every repetition engine —
// the expensive part of an insert, dependent only on the immutable
// engines — outside any lock, into pooled arenas.
func (s *SegmentedIndex) computeFilters(v bitvec.Vector) []*lsf.FilterSet {
	fss := make([]*lsf.FilterSet, len(s.eng.reps))
	for r, eng := range s.eng.reps {
		fs := s.getFilterSet()
		eng.FiltersInto(v, fs)
		fss[r] = fs
	}
	return fss
}

func (s *SegmentedIndex) releaseFilters(fss []*lsf.FilterSet) {
	for _, fs := range fss {
		s.fsPool.Put(fs)
	}
}

// install claims id, allocates a slot, and appends the pre-computed
// filters to the memtable, all under one write-lock critical section.
// install only reads fss, so Insert can retry it after a lost id race
// without regenerating filters. With a WAL attached the insert record
// is appended (reaching the kernel) before any in-memory mutation, and
// install returns only after the record is durable under the log's
// sync policy — the fsync wait happens after the lock is released, so
// concurrent inserts share group commits.
func (s *SegmentedIndex) install(id int64, v bitvec.Vector, fss []*lsf.FilterSet) error {
	s.mu.Lock()
	if _, taken := s.slotOf[id]; taken {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrIDTaken, id)
	}
	if len(s.vecs) >= math.MaxInt32 {
		s.mu.Unlock()
		return errors.New("segment: slot space exhausted (2^31 inserts)")
	}
	w := s.wal
	var lsn uint64
	if w != nil {
		var err error
		lsn, err = w.Append(wal.Record{Op: wal.OpInsert, ID: id, Bits: v.Bits()})
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("segment: logging insert: %w", err)
		}
		s.crashHook("insert-apply")
		s.memMaxLSN = lsn
		s.appliedLSN = lsn
	}
	s.applyInsertLocked(id, v, fss)
	s.mu.Unlock()
	if w != nil {
		if err := w.Commit(lsn); err != nil {
			// The insert is applied and its record is in the kernel; only
			// media durability is in doubt. Surface that to the caller.
			return fmt.Errorf("%w: %w", ErrNotDurable, err)
		}
	}
	return nil
}

// applyInsertLocked is the in-memory half of an insert: slot
// allocation, the packed verification form, the id registry, and the
// memtable postings. Caller holds the write lock and has already
// verified the id is unused and slot space remains.
func (s *SegmentedIndex) applyInsertLocked(id int64, v bitvec.Vector, fss []*lsf.FilterSet) {
	slot := int32(len(s.vecs))
	s.vecs = append(s.vecs, v)
	s.packed.Append(v)
	s.alive = append(s.alive, true)
	s.ext = append(s.ext, id)
	s.slotOf[id] = slot
	if id >= s.nextAuto {
		s.nextAuto = id + 1
	}
	s.live++
	s.mem.add(slot, fss)
	if len(s.mem.slots) >= s.cfg.MemtableSize {
		s.rotateLocked()
	}
}

// rotateLocked moves the active memtable to the freeze queue and wakes
// the worker, stamping the memtable with the applied-insert LSN
// high-water mark: every insert record at or below rotLSN has been
// applied into this or an earlier memtable, so once this memtable's
// frozen segment is durable the checkpoint may fence that whole
// prefix. Caller holds the write lock.
func (s *SegmentedIndex) rotateLocked() {
	if len(s.mem.slots) == 0 {
		return
	}
	s.mem.rotLSN = s.memMaxLSN
	s.flushing = append(s.flushing, s.mem)
	s.mem = newMemtable(s.eng, s.mem)
	s.cond.Broadcast()
}

// Delete tombstones the vector inserted under id, reporting whether it
// was live. The slot is masked immediately; the bytes are reclaimed when
// compaction next rewrites the segment holding it. With a WAL attached
// the delete record is appended before the tombstone; if the log
// refuses the append (e.g. after Close) the delete is not applied and
// Delete reports false.
func (s *SegmentedIndex) Delete(id int64) bool {
	s.mu.Lock()
	slot, ok := s.slotOf[id]
	if !ok || !s.alive[slot] {
		s.mu.Unlock()
		return false
	}
	w := s.wal
	var lsn uint64
	if w != nil {
		var err error
		lsn, err = w.Append(wal.Record{Op: wal.OpDelete, ID: id})
		if err != nil {
			s.mu.Unlock()
			return false
		}
		s.crashHook("delete-apply")
		s.appliedLSN = lsn
	}
	s.alive[slot] = false
	s.live--
	s.deadExt = append(s.deadExt, id)
	s.mu.Unlock()
	if w != nil {
		// Durability wait outside the lock; an fsync failure leaves the
		// tombstone applied with the record already in the kernel.
		_ = w.Commit(lsn)
	}
	return true
}

// Flush synchronously rotates the active memtable and waits until every
// queued memtable has been frozen into a CSR segment. Mainly for tests
// and snapshot-heavy callers that want a bounded memtable on disk.
func (s *SegmentedIndex) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rotateLocked()
	for len(s.flushing) > 0 && !s.closed {
		s.cond.Wait()
	}
}

// WaitIdle blocks until no freeze, compaction, tier move, or WAL
// checkpoint work is pending or running. Insert/Delete/Query may of
// course create new work afterwards.
func (s *SegmentedIndex) WaitIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for (len(s.flushing) > 0 || s.compacting || s.persisting || s.tiering ||
		s.needsCompactLocked() || s.needsRetierLocked()) && !s.closed {
		s.cond.Wait()
	}
}

func (s *SegmentedIndex) needsCompactLocked() bool {
	return len(s.segs) > s.cfg.MaxSegments
}

// AppliedLSN reports the WAL LSN of the newest record (insert, delete,
// or replayed checkpoint) fully applied in memory. A snapshot taken
// after reading it, replayed with the log from AppliedLSN()+1 onward,
// reconstructs this index exactly — the replication cut point. Zero
// when no WAL is attached or nothing has been applied.
func (s *SegmentedIndex) AppliedLSN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appliedLSN
}

// WAL returns the attached log, or nil before Recover. The replication
// feed streams frames from it; callers must not Close it.
func (s *SegmentedIndex) WAL() *wal.Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wal
}

// Stats reports current sizes.
func (s *SegmentedIndex) Stats() IndexStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := IndexStats{
		Live:        s.live,
		Total:       len(s.vecs),
		Memtable:    len(s.mem.slots),
		Segments:    len(s.segs),
		Freezes:     s.freezes,
		Compactions: s.compactions,
	}
	for _, mt := range s.flushing {
		st.Flushing += len(mt.slots)
	}
	for _, g := range s.segs {
		st.SegmentSizes = append(st.SegmentSizes, g.size())
		if g.mapping != nil {
			st.ColdSegments++
		} else {
			st.ResidentSegments++
			st.ResidentBytes += g.arenaBytes
		}
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.WAL = &ws
	}
	return st
}

func (s *SegmentedIndex) getFilterSet() *lsf.FilterSet {
	fs, _ := s.fsPool.Get().(*lsf.FilterSet)
	if fs == nil {
		fs = new(lsf.FilterSet)
	}
	fs.Reset()
	return fs
}

// QueryWithContext answers one query in mode first: some live vector
// with similarity at least threshold among the candidates sharing a
// filter with ses's query. It is Search over a pooled plan, kept because
// the end-to-end benchmark's layer ledger compiles against it; the
// error is Search's.
func (s *SegmentedIndex) QueryWithContext(ctx context.Context, ses *verify.Session, threshold float64) (Match, QueryStats, bool, error) {
	return s.searchOne(ctx, Request{Sessions: []*verify.Session{ses}, Thresholds: []float64{threshold}, Mode: ModeFirst})
}

// QueryBestWithContext answers one query in mode best: its most similar
// candidate, ties to the lowest id. Kept, like QueryWithContext, for the
// layer ledger.
func (s *SegmentedIndex) QueryBestWithContext(ctx context.Context, ses *verify.Session) (Match, QueryStats, bool, error) {
	return s.searchOne(ctx, Request{Sessions: []*verify.Session{ses}, Mode: ModeBest})
}

func (s *SegmentedIndex) searchOne(ctx context.Context, req Request) (Match, QueryStats, bool, error) {
	p := s.eng.plan(req.Sessions[0].Query())
	defer s.eng.release(p)
	res, stats, err := s.Search(lsf.NewCancelCheck(ctx), p, req)
	return res[0].Match, stats, res[0].Found, err
}

// Data returns the slot-indexed vector table (dead slots keep their
// vector until compaction; they are never returned as candidates). The
// slice grows under inserts; the prefix a caller observed is immutable,
// but slots allocated after the call are not in the returned snapshot —
// callers pairing Data with later Candidates calls (the join driver)
// must hold writes quiescent for the pairing to stay index-consistent.
func (s *SegmentedIndex) Data() []bitvec.Vector {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.vecs
}

// worker is the background freeze/compaction loop: one goroutine per
// index, woken by rotations and Close. Heavy work (building CSR arenas,
// merging segments) runs outside the lock; installs are brief writes.
func (s *SegmentedIndex) worker() {
	defer close(s.workerDone)
	s.mu.Lock()
	for {
		// The worker pauses during WAL recovery: a memtable frozen
		// before the log is attached would get no checkpoint segment
		// file, yet a later checkpoint could fence (and truncate) the
		// log records that are its only durable copy.
		for !s.closed && (s.recovering ||
			(len(s.flushing) == 0 && !s.needsCompactLocked() && !s.needsRetierLocked())) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		if len(s.flushing) > 0 {
			mt := s.flushing[0]
			s.mu.Unlock()
			t0 := time.Now()
			seg := s.buildSegment(mt)
			if m := s.cfg.Metrics; m != nil {
				m.FreezeSeconds.ObserveDuration(time.Since(t0))
				m.Freezes.Inc()
			}
			s.mu.Lock()
			s.flushing = s.flushing[1:]
			if seg != nil {
				s.segs = append(s.segs, seg)
			}
			s.freezes++
			s.cond.Broadcast()
			if seg != nil && s.storageDirLocked() != "" {
				// Persist the frozen segment and, with a WAL attached,
				// fence the insert prefix it covers (drops the lock for
				// the file IO).
				s.persistFreezeLocked(seg, mt.rotLSN)
			}
			continue
		}
		if s.needsCompactLocked() {
			a, b := s.pickSmallestLocked()
			s.compacting = true
			s.mu.Unlock()
			t0 := time.Now()
			merged := s.mergeSegments(a, b)
			if m := s.cfg.Metrics; m != nil {
				m.CompactSeconds.ObserveDuration(time.Since(t0))
				m.Compactions.Inc()
			}
			s.mu.Lock()
			s.segs = removeSegs(s.segs, a, b)
			if merged != nil {
				s.segs = append(s.segs, merged)
			}
			s.compacting = false
			s.compactions++
			s.cond.Broadcast()
			if s.storageDirLocked() != "" {
				s.persistCompactionLocked(merged, a, b)
			}
			continue
		}
		// Tier maintenance: one segment per pass (re-evaluated each
		// time around, so fresh freezes and compactions take priority).
		g, demote, ok := s.retierActionLocked()
		if !ok {
			continue
		}
		s.tiering = true
		s.mu.Unlock()
		if demote {
			s.demoteSeg(g)
		} else {
			s.promoteSeg(g)
		}
		s.mu.Lock()
		s.tiering = false
		s.cond.Broadcast()
	}
}

// pickSmallestLocked returns the two smallest frozen segments. Caller
// holds the lock and has checked len(segs) >= 2 via needsCompactLocked
// (MaxSegments >= 1).
func (s *SegmentedIndex) pickSmallestLocked() (*frozenSeg, *frozenSeg) {
	i, j := -1, -1
	for k, g := range s.segs {
		switch {
		case i < 0 || g.size() < s.segs[i].size():
			j = i
			i = k
		case j < 0 || g.size() < s.segs[j].size():
			j = k
		}
	}
	return s.segs[i], s.segs[j]
}

func removeSegs(segs []*frozenSeg, drop ...*frozenSeg) []*frozenSeg {
	out := segs[:0]
	for _, g := range segs {
		keep := true
		for _, d := range drop {
			if g == d {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, g)
		}
	}
	return out
}
