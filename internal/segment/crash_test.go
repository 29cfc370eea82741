package segment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"testing"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/hashing"
	"skewsim/internal/wal"
)

// Crash-recovery acceptance tests. A helper process (this test binary
// re-executed with SKEWSIM_CRASH_* env vars) runs a deterministic
// insert/delete workload against a WAL-attached index and SIGKILLs
// itself at an injected fault point — between the WAL append and the
// memtable apply, or between a completed freeze's checkpoint file and
// its checkpoint record. The parent then recovers from the surviving
// files and asserts the result is indistinguishable from an index that
// executed the same logical prefix and never crashed: identical sorted
// candidate-id sets and bit-identical top-k similarities for a batch
// of queries. Table-driven over both fsync policies; the torn-tail
// case is exercised in-process below.

const (
	envCrashPoint   = "SKEWSIM_CRASH_POINT"
	envCrashDir     = "SKEWSIM_CRASH_DIR"
	envCrashFsync   = "SKEWSIM_CRASH_FSYNC"
	envCrashTrigger = "SKEWSIM_CRASH_TRIGGER"
	envCrashScript  = "SKEWSIM_CRASH_SCRIPT"
)

// crashOp is one step of the scripted workload.
type crashOp struct {
	del bool
	id  int64 // delete target
	vec bitvec.Vector
}

// crashWorkload is the deterministic op sequence both the helper and
// the parent's reference index execute: n inserts (auto ids 0..n-1 in
// order) with a delete of id i-2 after every fifth insert.
func crashWorkload(t *testing.T, n int) []crashOp {
	t.Helper()
	d := testDist(t)
	rng := hashing.NewSplitMix64(7)
	data := d.SampleN(rng, n)
	var ops []crashOp
	for i, v := range data {
		ops = append(ops, crashOp{vec: v})
		if i%5 == 4 {
			ops = append(ops, crashOp{del: true, id: int64(i - 2)})
		}
	}
	return ops
}

func crashQueries(t *testing.T, n int) []bitvec.Vector {
	t.Helper()
	return testDist(t).SampleN(hashing.NewSplitMix64(1234), n)
}

func applyOps(t *testing.T, s *SegmentedIndex, ops []crashOp) {
	t.Helper()
	for i, op := range ops {
		if op.del {
			if !s.Delete(op.id) {
				t.Fatalf("op %d: Delete(%d) reported not live", i, op.id)
			}
			continue
		}
		if _, err := s.Insert(op.vec); err != nil {
			t.Fatalf("op %d: Insert: %v", i, err)
		}
	}
}

const crashWorkloadN = 120

func crashConfig(t *testing.T, script string) Config {
	t.Helper()
	params := testParams(t, testDist(t), crashWorkloadN, 3, 55)
	cfg := Config{Params: params, N: crashWorkloadN}
	switch script {
	case "stream":
		// Small memtables so freezes, checkpoints, and compactions all
		// run concurrently with the op stream being crashed.
		cfg.MemtableSize = 24
		cfg.MaxSegments = 3
	case "flush":
		// No auto-rotation: freezes happen only at the explicit Flush
		// barriers, so the applied-op prefix at the crash is exact.
		cfg.MemtableSize = 1 << 20
		cfg.MaxSegments = 100
	default:
		t.Fatalf("unknown script %q", script)
	}
	return cfg
}

// TestCrashHelper is the sacrificial process. It only runs when
// re-executed by TestCrashRecoveryDifferential.
func TestCrashHelper(t *testing.T) {
	point := os.Getenv(envCrashPoint)
	if point == "" {
		t.Skip("crash helper: run only as a subprocess")
	}
	dir := os.Getenv(envCrashDir)
	script := os.Getenv(envCrashScript)
	policy, err := wal.ParseSyncPolicy(os.Getenv(envCrashFsync))
	if err != nil {
		t.Fatal(err)
	}
	trigger, err := strconv.Atoi(os.Getenv(envCrashTrigger))
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(dir, wal.Options{Sync: policy, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Recover(crashConfig(t, script), log)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hits := 0
	s.crashHook = func(p string) {
		if p != point {
			return
		}
		hits++
		if hits == trigger {
			// The record (or checkpoint file) this point follows has
			// reached the kernel; dying here must lose nothing durable.
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	}
	ops := crashWorkload(t, crashWorkloadN)
	switch script {
	case "stream":
		applyOps(t, s, ops)
		s.Flush()
		s.WaitIdle()
	case "flush":
		applyOps(t, s, ops[:len(ops)/2])
		s.Flush()
		s.WaitIdle() // freeze #1: checkpoint completes
		applyOps(t, s, ops[len(ops)/2:])
		s.Flush()
		s.WaitIdle() // freeze #2: the crash point fires mid-persist
	}
	// Reaching this line means the fault point never fired.
	fmt.Println("HELPER-NOCRASH")
}

// opBoundary returns the number of leading ops whose effects must
// survive a crash at occurrence `trigger` of `point`: the triggering
// op's record reached the kernel before the kill, so it is included.
func opBoundary(t *testing.T, ops []crashOp, point string, trigger int) int {
	t.Helper()
	hits := 0
	for i, op := range ops {
		switch {
		case point == "insert-apply" && !op.del, point == "delete-apply" && op.del:
			hits++
			if hits == trigger {
				return i + 1
			}
		}
	}
	t.Fatalf("workload never reaches occurrence %d of %s", trigger, point)
	return 0
}

// assertEquivalent asserts the recovered index answers exactly like the
// reference: same live count, same id high-water mark, same sorted
// candidate sets, and bit-identical top-k results for every query.
func assertEquivalent(t *testing.T, got, want *SegmentedIndex, queries []bitvec.Vector) {
	t.Helper()
	if g, w := got.Stats().Live, want.Stats().Live; g != w {
		t.Fatalf("live count: recovered %d, reference %d", g, w)
	}
	if g, w := got.NextID(), want.NextID(); g < w {
		// Recovery may over-burn ids (a truncated insert known only from
		// its pinned delete record) but must never under-burn.
		t.Fatalf("NextID: recovered %d, reference %d", g, w)
	}
	for qi, q := range queries {
		gc, _ := got.CandidatesExt(q)
		wc, _ := want.CandidatesExt(q)
		slices.Sort(gc)
		slices.Sort(wc)
		if !slices.Equal(gc, wc) {
			t.Fatalf("query %d: candidate sets differ\nrecovered: %v\nreference: %v", qi, gc, wc)
		}
		gm, _ := queryTopK(got, q, 10, bitvec.BraunBlanquetMeasure)
		wm, _ := queryTopK(want, q, 10, bitvec.BraunBlanquetMeasure)
		if !slices.Equal(gm, wm) {
			t.Fatalf("query %d: top-k differs\nrecovered: %v\nreference: %v", qi, gm, wm)
		}
	}
}

// TestCrashRecoveryDifferential is the acceptance test for the WAL:
// SIGKILL at every injected fault point, under both fsync policies,
// must recover to candidate sets identical to the uncrashed index.
func TestCrashRecoveryDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cases := []struct {
		point   string
		script  string
		trigger int
	}{
		// Killed between a logged insert and its memtable apply, early
		// (memtable only) and late (frozen segments + checkpoints exist).
		{"insert-apply", "stream", 5},
		{"insert-apply", "stream", 90},
		// Killed between a logged delete and its tombstone.
		{"delete-apply", "stream", 3},
		{"delete-apply", "stream", 15},
		// Killed between freeze #2's checkpoint file and its checkpoint
		// record (freeze #1 checkpointed cleanly).
		{"freeze-checkpoint", "flush", 2},
	}
	ops := crashWorkload(t, crashWorkloadN)
	queries := crashQueries(t, 40)
	for _, fsync := range []string{"always", "never"} {
		for _, tc := range cases {
			tc := tc
			t.Run(fmt.Sprintf("%s/%s@%d", fsync, tc.point, tc.trigger), func(t *testing.T) {
				dir := t.TempDir()
				runCrashHelper(t, dir, fsync, tc.point, tc.script, tc.trigger)

				boundary := len(ops)
				if tc.script == "stream" {
					boundary = opBoundary(t, ops, tc.point, tc.trigger)
				}
				ref, err := New(crashConfig(t, tc.script))
				if err != nil {
					t.Fatalf("reference New: %v", err)
				}
				defer ref.Close()
				applyOps(t, ref, ops[:boundary])

				log, err := wal.Open(dir, wal.Options{SegmentBytes: 1 << 12})
				if err != nil {
					t.Fatalf("wal.Open after crash: %v", err)
				}
				rec, err := Recover(crashConfig(t, tc.script), log)
				if err != nil {
					log.Close()
					t.Fatalf("Recover after crash: %v", err)
				}
				defer rec.Close()
				assertEquivalent(t, rec, ref, queries)
			})
		}
	}
}

// runCrashHelper re-executes the test binary as the sacrificial process
// and asserts it died by SIGKILL at the fault point.
func runCrashHelper(t *testing.T, dir, fsync, point, script string, trigger int) {
	t.Helper()
	runCrashHelperNamed(t, "TestCrashHelper", dir, fsync, point, script, trigger)
}

// runCrashHelperNamed runs `name` (a helper test function gated on the
// SKEWSIM_CRASH_* env vars) as the sacrificial subprocess.
func runCrashHelperNamed(t *testing.T, name, dir, fsync, point, script string, trigger int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^"+name+"$")
	cmd.Env = append(os.Environ(),
		envCrashPoint+"="+point,
		envCrashDir+"="+dir,
		envCrashFsync+"="+fsync,
		envCrashScript+"="+script,
		envCrashTrigger+"="+strconv.Itoa(trigger),
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("helper exited cleanly — fault point %s@%d never fired:\n%s", point, trigger, out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("helper: %v\n%s", err, out)
	}
	ws, ok := exitErr.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("helper died without SIGKILL (%v):\n%s", err, out)
	}
}

// TestWALRoundTripAndTruncation runs the whole workload durably with
// tiny memtables and log segments, waits for freezes/compactions to
// checkpoint, and checks (a) the log really was truncated behind the
// checkpoints, (b) a clean reopen converges to the uncrashed reference.
func TestWALRoundTripAndTruncation(t *testing.T) {
	ops := crashWorkload(t, crashWorkloadN)
	queries := crashQueries(t, 40)
	dir := t.TempDir()

	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := Recover(crashConfig(t, "stream"), log)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	applyOps(t, s, ops)
	s.Flush()
	s.WaitIdle()
	preStats := s.Stats()
	if preStats.WAL == nil || preStats.WAL.LastCheckpoint == 0 {
		t.Fatalf("expected checkpoints to have run: %+v", preStats.WAL)
	}
	if preStats.WAL.Records >= int64(len(ops)) {
		t.Fatalf("log holds %d records for %d ops: checkpoint truncation never pruned", preStats.WAL.Records, len(ops))
	}
	s.Close()

	log2, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec, err := Recover(crashConfig(t, "stream"), log2)
	if err != nil {
		log2.Close()
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()

	ref, err := New(crashConfig(t, "stream"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer ref.Close()
	applyOps(t, ref, ops)
	assertEquivalent(t, rec, ref, queries)
}

// TestTornTailRecovery cuts the log mid-record at several depths (the
// in-process half of the torn-tail story: wal.Open must truncate back
// to the last clean record and recovery must equal the reference over
// the surviving prefix). MemtableSize is huge so no checkpoint records
// interleave and op k is exactly record k+1.
func TestTornTailRecovery(t *testing.T) {
	ops := crashWorkload(t, crashWorkloadN)
	queries := crashQueries(t, 25)

	// Byte offset of each record's frame in the single log file.
	offsets := make([]int64, len(ops)+1)
	for i, op := range ops {
		payload := 1 + 8 // op + id
		if !op.del {
			payload = 1 + 8 + 4 + 4*op.vec.Len()
		}
		offsets[i+1] = offsets[i] + 8 + int64(payload)
	}

	cases := []struct {
		name string
		cut  int64 // file size after truncation
		keep int   // ops that must survive
	}{
		{"one-byte-short", offsets[len(ops)] - 1, len(ops) - 1},
		{"mid-last-record", offsets[len(ops)-1] + 9, len(ops) - 1},
		{"two-records-torn", offsets[len(ops)-2] + 3, len(ops) - 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
			if err != nil {
				t.Fatalf("wal.Open: %v", err)
			}
			s, err := Recover(crashConfig(t, "flush"), log)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			applyOps(t, s, ops)
			s.Close()

			files, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(files) != 1 {
				t.Fatalf("want exactly one log file, got %v (%v)", files, err)
			}
			if st, err := os.Stat(files[0]); err != nil || st.Size() != offsets[len(ops)] {
				t.Fatalf("log size %v, computed %d (%v)", st.Size(), offsets[len(ops)], err)
			}
			if err := os.Truncate(files[0], tc.cut); err != nil {
				t.Fatal(err)
			}

			log2, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
			if err != nil {
				t.Fatalf("wal.Open on torn log: %v", err)
			}
			if log2.Stats().TornBytes == 0 {
				t.Fatal("expected a recorded torn tail")
			}
			rec, err := Recover(crashConfig(t, "flush"), log2)
			if err != nil {
				log2.Close()
				t.Fatalf("Recover on torn log: %v", err)
			}
			defer rec.Close()

			ref, err := New(crashConfig(t, "flush"))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer ref.Close()
			applyOps(t, ref, ops[:tc.keep])
			assertEquivalent(t, rec, ref, queries)
		})
	}
}

// TestReplayEraFreezesGetCheckpoints pins the recovery/worker pause:
// memtables rotated while the log is still being replayed must freeze
// only after the attach, so their checkpoint segment files exist before
// any later checkpoint fences (and truncates) the replayed records that
// are otherwise their only durable copy. Without the pause the failure
// is a race (the worker must win a freeze mid-replay), so this test is
// a canary for the invariant rather than a deterministic reproducer;
// generation 3 below loses replay-era vectors when it fires.
func TestReplayEraFreezesGetCheckpoints(t *testing.T) {
	ops := crashWorkload(t, crashWorkloadN)
	queries := crashQueries(t, 25)
	dir := t.TempDir()

	// Generation 1: all records land in the log, no freezes (huge
	// memtable), so generation 2 must replay everything.
	log1, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s1, err := Recover(crashConfig(t, "flush"), log1)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	applyOps(t, s1, ops)
	s1.Close()

	// Generation 2: small memtables, so the replay itself rotates
	// several times; then fresh ops push post-attach checkpoints whose
	// fences cover the replayed records and truncate them.
	log2, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	s2, err := Recover(crashConfig(t, "stream"), log2)
	if err != nil {
		log2.Close()
		t.Fatalf("Recover: %v", err)
	}
	extra := testDist(t).SampleN(hashing.NewSplitMix64(21), 60)
	for i, v := range extra {
		if _, err := s2.Insert(v); err != nil {
			t.Fatalf("extra insert %d: %v", i, err)
		}
	}
	s2.Flush()
	s2.WaitIdle()
	st := s2.Stats()
	if st.WAL == nil || st.WAL.LastCheckpoint == 0 {
		t.Fatalf("no post-attach checkpoint ran: %+v", st.WAL)
	}
	if st.WAL.Records >= int64(len(ops)) {
		t.Fatalf("log still holds %d records: replayed prefix never truncated", st.WAL.Records)
	}
	s2.Close()

	// Generation 3: the truncated log plus the checkpoint files must
	// still reconstruct everything.
	log3, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	s3, err := Recover(crashConfig(t, "stream"), log3)
	if err != nil {
		log3.Close()
		t.Fatalf("Recover: %v", err)
	}
	defer s3.Close()

	ref, err := New(crashConfig(t, "stream"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer ref.Close()
	applyOps(t, ref, ops)
	for i, v := range extra {
		if _, err := ref.Insert(v); err != nil {
			t.Fatalf("reference extra insert %d: %v", i, err)
		}
	}
	assertEquivalent(t, s3, ref, queries)
}

// TestUnknownDeadIDsPropagate pins the tombstone registry for ids whose
// vectors no longer exist (compacted away before a crash): burning the
// id must also put it on the dead list exactly once, so every future
// checkpoint file keeps carrying the tombstone and no later generation
// re-derives nextAuto below it.
func TestUnknownDeadIDsPropagate(t *testing.T) {
	s, err := New(crashConfig(t, "flush"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	s.NoteDeadID(42)
	s.NoteDeadID(42)
	s.applyDeadID(43)
	s.applyDeadID(43)
	s.mu.Lock()
	dead := append([]int64(nil), s.deadExt...)
	next := s.nextAuto
	s.mu.Unlock()
	slices.Sort(dead)
	if !slices.Equal(dead, []int64{42, 43}) {
		t.Fatalf("deadExt = %v, want exactly [42 43]", dead)
	}
	if next != 44 {
		t.Fatalf("nextAuto = %d, want 44", next)
	}
}

// TestInsertBatchDurable pins the batch path: one batch, one group
// commit, same recovery result as singles.
func TestInsertBatchDurable(t *testing.T) {
	d := testDist(t)
	data := d.SampleN(hashing.NewSplitMix64(3), 64)
	queries := crashQueries(t, 10)
	dir := t.TempDir()

	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	cfg := crashConfig(t, "stream")
	s, err := Recover(cfg, log)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ids := make([]int64, len(data))
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := s.InsertBatch(ids, data); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if err := s.InsertBatch([]int64{5}, data[:1]); !errors.Is(err, ErrIDTaken) {
		t.Fatalf("duplicate batch id: %v, want ErrIDTaken", err)
	}
	if !s.Delete(9) {
		t.Fatal("Delete(9)")
	}
	s.Close()

	log2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec, err := Recover(cfg, log2)
	if err != nil {
		log2.Close()
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()

	ref, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer ref.Close()
	for i, v := range data {
		if err := ref.InsertWithID(int64(i), v); err != nil {
			t.Fatalf("InsertWithID: %v", err)
		}
	}
	ref.Delete(9)
	assertEquivalent(t, rec, ref, queries)
}
