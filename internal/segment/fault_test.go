package segment

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/faultinject"
	"skewsim/internal/hashing"
	"skewsim/internal/verify"
	"skewsim/internal/wal"
)

// Fault-injection acceptance tests (the `make test-fault` suite). The
// invariant under every injected storage fault: writes either succeed
// durably, or fail with a clean, typed error that leaves the index
// answering correctly — never corruption. Recovery from the surviving
// files after a fault must be bit-identical to an index that executed
// the same logical prefix and never faulted.

var errInjected = errors.New("injected fault")

// TestFaultWALFsyncNotDurable: an fsync failure on the commit path
// surfaces as ErrNotDurable — the write IS applied (the id is live and
// queryable), the error is retriable, and once the fault clears the
// record recovers like any other.
func TestFaultWALFsyncNotDurable(t *testing.T) {
	d := testDist(t)
	params := testParams(t, d, 64, 2, 91)
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := Recover(Config{Params: params, N: 64}, log)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}

	rng := hashing.NewSplitMix64(3)
	v0 := d.Sample(rng)
	id0, err := s.Insert(v0)
	if err != nil {
		t.Fatalf("healthy Insert: %v", err)
	}

	restore := faultinject.Set(faultinject.WALFsync, func(...any) error {
		return errInjected
	})
	v1 := d.Sample(rng)
	id1, err := s.Insert(v1)
	if !errors.Is(err, ErrNotDurable) {
		restore()
		t.Fatalf("Insert under fsync fault: err = %v, want ErrNotDurable", err)
	}
	if !errors.Is(err, errInjected) {
		restore()
		t.Fatalf("ErrNotDurable does not wrap the fsync cause: %v", err)
	}
	if id1 <= id0 {
		restore()
		t.Fatalf("not-durable insert id %d not after %d", id1, id0)
	}
	// Applied: the vector is live despite the failed fsync.
	if live := s.Stats().Live; live != 2 {
		restore()
		t.Fatalf("live count %d after not-durable insert, want 2", live)
	}
	restore()

	// Fault cleared: the next write commits and, because fsync batches
	// cover the whole file prefix, retro-actively hardens id1's record.
	v2 := d.Sample(rng)
	if _, err := s.Insert(v2); err != nil {
		t.Fatalf("Insert after fault cleared: %v", err)
	}
	s.Close()

	log2, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open after close: %v", err)
	}
	rec, err := Recover(Config{Params: params, N: 64}, log2)
	if err != nil {
		t.Fatalf("Recover after fault: %v", err)
	}
	defer rec.Close()
	if live := rec.Stats().Live; live != 3 {
		t.Fatalf("recovered live count %d, want 3", live)
	}
	// The recovered index — including the not-durable record, whose
	// bytes reached the kernel — answers exactly like a never-faulted
	// reference over the same three vectors.
	ref, err := New(Config{Params: params, N: 64})
	if err != nil {
		t.Fatalf("reference New: %v", err)
	}
	defer ref.Close()
	for _, v := range []bitvec.Vector{v0, v1, v2} {
		if _, err := ref.Insert(v); err != nil {
			t.Fatalf("reference Insert: %v", err)
		}
	}
	assertEquivalent(t, rec, ref, crashQueries(t, 20))
}

// TestFaultCheckpointDiskFull: a disk-full failure writing a freeze's
// checkpoint file leaves the log un-fenced (the records stay the
// durable copy), the index keeps serving, and recovery from the
// surviving files is bit-identical to a never-faulted reference.
func TestFaultCheckpointDiskFull(t *testing.T) {
	const n = 120
	d := testDist(t)
	params := testParams(t, d, n, 3, 92)
	cfg := Config{Params: params, N: n, MemtableSize: 24, MaxSegments: 3}
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := Recover(cfg, log)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}

	restore := faultinject.Set(faultinject.SegmentCheckpointWrite, func(...any) error {
		return errInjected // ENOSPC stand-in, before the temp file opens
	})
	defer restore()

	data := d.SampleN(hashing.NewSplitMix64(17), n)
	for i, v := range data {
		if _, err := s.Insert(v); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		if i%10 == 9 {
			if !s.Delete(int64(i - 5)) {
				t.Fatalf("Delete(%d) reported not live", i-5)
			}
		}
	}
	s.Flush()
	s.WaitIdle() // every freeze has attempted (and failed) its checkpoint

	// No checkpoint file may exist — a partial one would shadow the log.
	if segs, _ := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"+ckptSuffix)); len(segs) != 0 {
		t.Fatalf("checkpoint files written despite injected disk-full: %v", segs)
	}
	// The index still answers: degradation is "no truncation", not
	// "no service".
	queries := crashQueries(t, 20)
	if c, _ := s.CandidatesExt(queries[0]); c == nil && len(data) > 0 {
		t.Log("query returned no candidates (allowed, but suspicious)")
	}
	s.Close()

	// "Crash" while disk is still full: recovery must rebuild the exact
	// index from log records alone.
	log2, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatalf("wal.Open after crash: %v", err)
	}
	rec, err := Recover(cfg, log2)
	if err != nil {
		t.Fatalf("Recover with disk still full: %v", err)
	}
	defer rec.Close()

	ref, err := New(cfg)
	if err != nil {
		t.Fatalf("reference New: %v", err)
	}
	defer ref.Close()
	for i, v := range data {
		if _, err := ref.Insert(v); err != nil {
			t.Fatalf("reference Insert %d: %v", i, err)
		}
		if i%10 == 9 {
			ref.Delete(int64(i - 5))
		}
	}
	assertEquivalent(t, rec, ref, queries)
}

// TestFaultCheckpointStreamError: a write error partway through
// streaming a segment file (the temp file is open and being written)
// removes the temp file, keeps the segment resident — it has no file to
// demote to, even under a 1-byte budget — and leaves the log un-fenced,
// so recovery replays the records and comes back bit-identical.
func TestFaultCheckpointStreamError(t *testing.T) {
	const n = 120
	d := testDist(t)
	params := testParams(t, d, n, 3, 93)
	cfg := Config{Params: params, N: n, MemtableSize: 24, MaxSegments: 3, ResidentBytes: 1}
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := Recover(cfg, log)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}

	var fired atomic.Int64
	restore := faultinject.Set(faultinject.SegmentCheckpointChunk, func(args ...any) error {
		fired.Add(1)
		return errInjected // EIO stand-in on a chunk write
	})
	defer restore()

	data := d.SampleN(hashing.NewSplitMix64(19), n)
	for i, v := range data {
		if _, err := s.Insert(v); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	s.Flush()
	s.WaitIdle()
	if fired.Load() == 0 {
		t.Fatal("no segment file write reached the chunk fault point")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, ckptPrefix+"*")); len(files) != 0 {
		t.Fatalf("segment files left behind by failed writes: %v", files)
	}
	if st := s.Stats(); st.Segments == 0 || st.ColdSegments != 0 {
		t.Fatalf("want every segment resident after failed writes, got %+v", st)
	}
	if seq := log.LastCheckpoint(); seq != 0 {
		t.Fatalf("log fenced at checkpoint %d by a failed write", seq)
	}
	s.Close()
	restore()

	log2, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatalf("wal.Open after failed writes: %v", err)
	}
	rec, err := Recover(cfg, log2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	ref, err := New(cfg)
	if err != nil {
		t.Fatalf("reference New: %v", err)
	}
	defer ref.Close()
	for i, v := range data {
		if _, err := ref.Insert(v); err != nil {
			t.Fatalf("reference Insert %d: %v", i, err)
		}
	}
	assertEquivalent(t, rec, ref, crashQueries(t, 20))
}

// TestFaultCancelSegmentQueries: context cancellation aborts the
// segment query paths with the context error and partial (incomplete)
// results; Background-context calls are exactly the plain paths.
func TestFaultCancelSegmentQueries(t *testing.T) {
	const n = 256
	d := testDist(t)
	params := testParams(t, d, n, 3, 93)
	s, err := New(Config{Params: params, N: n, MemtableSize: 64, MaxSegments: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	data := d.SampleN(hashing.NewSplitMix64(21), n)
	for _, v := range data {
		if _, err := s.Insert(v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	s.Flush()
	s.WaitIdle() // frozen segments + memtable layers all populated

	m := bitvec.BraunBlanquetMeasure
	q := data[5]
	ses := verify.Acquire(m, q)
	defer verify.Release(ses)

	// Background: identical to the plain path, error-free.
	wm, ws, wf, _ := s.QueryBestWithContext(nil, ses)
	gm, gs, gf, err := s.QueryBestWithContext(context.Background(), ses)
	if err != nil {
		t.Fatalf("QueryBestWithContext(Background): %v", err)
	}
	if gm != wm || gs != ws || gf != wf {
		t.Fatalf("Background QueryBestWithContext diverged: %+v/%+v/%v vs %+v/%+v/%v", gm, gs, gf, wm, ws, wf)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := s.QueryWithContext(ctx, ses, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled QueryWithContext: err = %v", err)
	}
	if _, _, err := runSearch(s, ctx, Request{Sessions: []*verify.Session{ses}, Mode: ModeTopK, K: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled top-k Search: err = %v", err)
	}

	// Batch: Background matches the plain batch; canceled aborts.
	sess := make([]*verify.Session, 4)
	for i := range sess {
		sess[i] = verify.Acquire(m, data[i*3])
		defer verify.Release(sess[i])
	}
	wantRes, wantStats, _ := searchBatch(s, nil, sess, nil)
	gotRes, gotStats, err := searchBatch(s, context.Background(), sess, nil)
	if err != nil {
		t.Fatalf("batch Search(Background): %v", err)
	}
	if gotStats != wantStats {
		t.Fatalf("batch stats diverged: %+v vs %+v", gotStats, wantStats)
	}
	for i := range wantRes {
		if gotRes[i].Match != wantRes[i].Match || gotRes[i].Found != wantRes[i].Found {
			t.Fatalf("batch result %d diverged: %+v vs %+v", i, gotRes[i], wantRes[i])
		}
	}
	if _, _, err := searchBatch(s, ctx, sess, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch Search: err = %v", err)
	}
}
