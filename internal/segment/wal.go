package segment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/lsf"
	"skewsim/internal/wal"
)

// Durability (write-ahead log + checkpoint segment files).
//
// A SegmentedIndex with an attached wal.Log persists its input, not its
// structure: every accepted Insert/Delete appends a record before the
// in-memory mutation, and the deterministic engines rebuild identical
// filter mappings on replay. Two kinds of files share the log
// directory:
//
//   - wal-<lsn>.log     rotated record files (owned by internal/wal)
//   - ckpt-<seq>.seg    one frozen segment each, written by the
//     background worker after a freeze or compaction completes
//
// A completed freeze makes its memtable's vectors durable twice over
// (log records and the new ckpt file), and every ckpt file also
// carries a snapshot of the global tombstone list, so the worker's
// checkpoint record fences inserts AND deletes up to the applied-LSN
// high-water mark of the frozen memtable; internal/wal then deletes
// whole log files at or below the fence. The fence is the applied
// mark, not the log's own high-water mark: a batch appends all its
// records before the first apply, and fencing unapplied, unfrozen
// inserts would lose them.
//
// Recovery (RecoverWAL) is a reconciliation, not a strict redo: load
// every ckpt segment file (skipping ids already present, e.g. from a
// snapshot restored first), then replay the surviving log records in
// LSN order — inserts at or below the checkpoint fence or with a known
// id are skipped, deletes always re-apply. Every step is idempotent, so
// a crash at any point (mid-append, between append and apply, between
// freeze and checkpoint, mid-compaction) converges to the same
// candidate sets the uncrashed index would serve; the crash tests
// assert exactly that differentially.

// Checkpoint segment files are SKSEG1 containers (storage.go): the
// vectors, the global tombstone snapshot at write time, the bloom
// filter, and the frozen per-repetition arenas verbatim — so recovery
// (and the cold tier) opens them without rebuilding anything. No
// per-vector alive flags: tombstones are the union of every file's
// dead list plus the surviving delete records. (Through PR 9 these
// files were "SKCKP1" bucket dumps; the format carried no
// compatibility promise — recovery and writing live in this package.)

const ckptPrefix, ckptSuffix = "ckpt-", ".seg"

func ckptName(seq uint64) string { return fmt.Sprintf("%s%016d%s", ckptPrefix, seq, ckptSuffix) }

// Recover builds an index from the durable state in log's directory —
// checkpoint segment files plus the surviving record tail — and
// attaches the log so subsequent writes are journaled. On an empty
// directory this is New plus an attach. The caller owns Closing the
// returned index (which closes the log).
func Recover(cfg Config, log *wal.Log) (*SegmentedIndex, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.RecoverWAL(log); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// RecoverWAL reconciles the durable state in log's directory into s and
// attaches the log. s may already hold data (a snapshot restored by
// ReadSnapshot): ids already present win, replayed deletes re-apply on
// top — the snapshot-plus-WAL-tail startup path of cmd/skewsimd. Must
// be called before any logged writes; the log must not have been
// appended to yet this session.
func (s *SegmentedIndex) RecoverWAL(log *wal.Log) error {
	// Pause the background worker for the whole recovery: replayed
	// inserts can rotate memtables, and freezing one before the log is
	// attached would leave a segment with no checkpoint file while its
	// records remain fence-able — a later checkpoint would truncate the
	// only durable copy. Queued memtables freeze (and write their
	// checkpoint files) after the attach below; their rotation stamp is
	// the pre-attach memMaxLSN of 0, so recovery-era checkpoints never
	// advance the fence past records they do not cover.
	s.mu.Lock()
	s.recovering = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.recovering = false
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	// Segment files live in Config.StorageDir when set, else next to
	// the log (the pre-PR-10 layout).
	dir := s.cfg.StorageDir
	if dir == "" {
		dir = log.Dir()
	} else if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	maxSeq, err := s.loadSegFiles(dir)
	if err != nil {
		return err
	}
	fence := log.LastCheckpoint()
	err = log.Replay(func(lsn uint64, rec wal.Record) error {
		switch rec.Op {
		case wal.OpInsert:
			if lsn <= fence {
				return nil // covered by a ckpt segment file
			}
			err := s.InsertWithID(rec.ID, bitvec.New(rec.Bits...))
			if errors.Is(err, ErrIDTaken) {
				return nil // already present (ckpt file or snapshot)
			}
			return err
		case wal.OpDelete:
			if !s.Delete(rec.ID) {
				// Unknown or already-dead id (checkpointed dead list, or
				// an insert fenced away and dropped by compaction): still
				// burn the id so auto-assignment never reuses it.
				s.NoteDeadID(rec.ID)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("segment: wal replay: %w", err)
	}
	s.mu.Lock()
	s.wal = log
	if maxSeq >= s.segSeq {
		s.segSeq = maxSeq + 1
	}
	// Everything at or below the log head is now reflected in memory
	// (replayed, fenced into a ckpt file, or a checkpoint record) — the
	// replication cursor resumes from here.
	s.appliedLSN = log.LastLSN()
	s.mu.Unlock()
	return nil
}

// NoteDeadID registers id as used-and-dead without a slot:
// auto-assignment skips past it, and the id joins the dead list so
// every future checkpoint file keeps carrying the tombstone — dropping
// it would let a third-generation recovery re-derive nextAuto below the
// id and reuse it, breaking the "ids are never reused" contract.
func (s *SegmentedIndex) NoteDeadID(id int64) {
	s.mu.Lock()
	s.noteDeadIDLocked(id)
	s.mu.Unlock()
}

func (s *SegmentedIndex) noteDeadIDLocked(id int64) {
	if id >= s.nextAuto {
		s.nextAuto = id + 1
	}
	if s.unknownDead == nil {
		s.unknownDead = make(map[int64]struct{})
	}
	if _, seen := s.unknownDead[id]; !seen {
		s.unknownDead[id] = struct{}{}
		s.deadExt = append(s.deadExt, id)
	}
}

// InsertBatch inserts vs under caller-chosen ids as one group-committed
// WAL append (a single write and, under SyncAlways, a single fsync wait
// for the whole batch). All ids must be unused; ErrIDTaken (wrapped)
// reports the first collision with nothing applied. Without a WAL it
// degrades to the same one-lock apply loop.
func (s *SegmentedIndex) InsertBatch(ids []int64, vs []bitvec.Vector) error {
	if len(ids) != len(vs) {
		return fmt.Errorf("segment: InsertBatch got %d ids for %d vectors", len(ids), len(vs))
	}
	if len(ids) == 0 {
		return nil
	}
	// The expensive, engine-only work runs outside the lock for the
	// whole batch, exactly like single inserts.
	all := make([][]*lsf.FilterSet, len(vs))
	for i, v := range vs {
		all[i] = s.computeFilters(v)
	}
	defer func() {
		for _, fss := range all {
			s.releaseFilters(fss)
		}
	}()

	s.mu.Lock()
	for _, id := range ids {
		if _, taken := s.slotOf[id]; taken {
			s.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrIDTaken, id)
		}
	}
	if len(s.vecs)+len(vs) > int(^uint32(0)>>1) {
		s.mu.Unlock()
		return errors.New("segment: slot space exhausted (2^31 inserts)")
	}
	w := s.wal
	var lsn uint64
	if w != nil {
		recs := make([]wal.Record, len(ids))
		for i, id := range ids {
			recs[i] = wal.Record{Op: wal.OpInsert, ID: id, Bits: vs[i].Bits()}
		}
		var err error
		lsn, err = w.AppendBatch(recs)
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("segment: logging insert batch: %w", err)
		}
		s.crashHook("insert-apply")
	}
	base := lsn - uint64(len(ids)) // record i of the batch is LSN base+1+i
	for i, id := range ids {
		if w != nil {
			// Advance the checkpoint fence record by record: a rotation
			// inside this loop must not fence batch inserts that have
			// not been applied into a memtable yet.
			s.memMaxLSN = base + 1 + uint64(i)
			s.appliedLSN = s.memMaxLSN
		}
		s.applyInsertLocked(id, vs[i], all[i])
	}
	s.mu.Unlock()
	if w != nil {
		if err := w.Commit(lsn); err != nil {
			return fmt.Errorf("%w: batch: %w", ErrNotDurable, err)
		}
	}
	return nil
}

// segDump is the lock-free snapshot of a frozen segment's vector table
// and the global tombstone list, taken before the worker writes a
// checkpoint file.
type segDump struct {
	exts []int64
	vecs []bitvec.Vector
	dead []int64
}

// gatherSegLocked copies the external ids and vector references of
// seg's slots plus the current tombstone list. Caller holds the lock
// (the ext/vecs/deadExt tables may be appended to concurrently
// otherwise); vectors themselves are immutable, so the references stay
// valid after release.
func (s *SegmentedIndex) gatherSegLocked(seg *frozenSeg) segDump {
	d := segDump{
		exts: make([]int64, len(seg.slots)),
		vecs: make([]bitvec.Vector, len(seg.slots)),
		dead: append([]int64(nil), s.deadExt...),
	}
	for i, slot := range seg.slots {
		d.exts[i] = s.ext[slot]
		d.vecs[i] = s.vecs[slot]
	}
	return d
}

// persistFreezeLocked writes seg's SKSEG1 segment file and, with a WAL
// attached, appends the checkpoint record fencing inserts through
// rotLSN. Caller holds the write lock; the file IO runs with it
// released. Failures leave the log un-fenced — recovery replays the
// records instead, so durability is preserved either way.
func (s *SegmentedIndex) persistFreezeLocked(seg *frozenSeg, rotLSN uint64) {
	w := s.wal
	dir := s.storageDirLocked()
	seq := s.segSeq
	s.segSeq++
	seg.walSeq = seq
	dump := s.gatherSegLocked(seg)
	compress := s.cfg.CompressPostings
	mt := s.cfg.Metrics
	s.persisting = true
	s.mu.Unlock()
	t0 := time.Now()
	path, size, err := writeSegFile(dir, seq, dump, seg.reps, seg.bloom, compress, s.crashHook)
	if err == nil && mt != nil {
		mt.observeCheckpoint(time.Since(t0), size)
	}
	s.crashHook("freeze-checkpoint")
	if err == nil && w != nil {
		// Log-file truncation and replay-skip fence; an error (e.g. log
		// closed during shutdown) only delays truncation.
		_ = w.Checkpoint(seq, rotLSN)
	}
	s.mu.Lock()
	if err == nil {
		seg.path = path // now demotable
	}
	s.persisting = false
	s.cond.Broadcast()
}

// persistCompactionLocked writes the merged segment's file and removes
// the inputs' files (closing their mappings — the inputs left the
// visible segment list under the write lock, so no traversal can still
// reach them). No checkpoint record: compaction does not extend the
// durable insert prefix, it only rewrites it. The new file lands
// before the old ones go, so a crash in between at worst re-loads both
// generations (idempotent by id). Caller holds the lock.
func (s *SegmentedIndex) persistCompactionLocked(merged, a, b *frozenSeg) {
	dir := s.storageDirLocked()
	var seq uint64
	var dump segDump
	compress := s.cfg.CompressPostings
	if merged != nil {
		seq = s.segSeq
		s.segSeq++
		merged.walSeq = seq
		dump = s.gatherSegLocked(merged)
	}
	mt := s.cfg.Metrics
	s.persisting = true
	s.mu.Unlock()
	ok := true
	var path string
	if merged != nil {
		t0 := time.Now()
		var size int64
		var err error
		if path, size, err = writeSegFile(dir, seq, dump, merged.reps, merged.bloom, compress, s.crashHook); err != nil {
			ok = false // keep the inputs' files: they still cover the data
		} else if mt != nil {
			mt.observeCheckpoint(time.Since(t0), size)
		}
	}
	closeSegFile(a)
	closeSegFile(b)
	s.crashHook("compaction-sweep")
	if ok {
		removeCkptFile(dir, a.walSeq)
		removeCkptFile(dir, b.walSeq)
	}
	s.mu.Lock()
	if merged != nil && ok {
		merged.path = path
	}
	s.persisting = false
	s.cond.Broadcast()
}

func removeCkptFile(dir string, seq uint64) {
	if seq == 0 {
		return // no durable side file (pre-WAL segment or snapshot restore)
	}
	_ = os.Remove(filepath.Join(dir, ckptName(seq)))
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// applyDeadID re-applies one checkpointed tombstone: kill the slot if
// the id is known and live; otherwise burn the id AND keep it on the
// dead list (its vector was compacted away — the checkpoint dead lists
// are now the tombstone's only durable home, so it must propagate into
// every future checkpoint file).
func (s *SegmentedIndex) applyDeadID(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.slotOf[id]; ok {
		if s.alive[slot] {
			s.alive[slot] = false
			s.live--
			s.deadExt = append(s.deadExt, id)
		}
		return
	}
	s.noteDeadIDLocked(id)
}

// findOrRestoreSlot returns the slot already registered for ext, or
// allocates one for v outside the memtable (postings arrive with the
// checkpoint segment being loaded). New slots start alive; pinned
// delete records re-kill them during replay.
func (s *SegmentedIndex) findOrRestoreSlot(ext int64, v bitvec.Vector) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.slotOf[ext]; ok {
		return slot
	}
	slot := int32(len(s.vecs))
	s.vecs = append(s.vecs, v)
	s.packed.Append(v)
	s.alive = append(s.alive, true)
	s.ext = append(s.ext, ext)
	s.slotOf[ext] = slot
	if ext >= s.nextAuto {
		s.nextAuto = ext + 1
	}
	s.live++
	return slot
}
