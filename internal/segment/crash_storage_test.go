package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"

	"skewsim/internal/wal"
)

// Storage-layer crash tests: SIGKILL inside the segment-file write, the
// compaction sweep that retires superseded files, and the tier moves
// that swap a segment between its heap and mmap forms. With fsync
// SyncAlways every applied op is durable before the next is issued, so
// whatever the storage machinery was doing when it died, recovery must
// reconstruct the full workload — from whichever mix of WAL records,
// current-generation and superseded segment files survived — and leave
// no torn temporaries behind.

// storageCrashConfig keeps memtables small enough that the full tiering
// and compaction machinery runs, with a 1-byte resident budget so every
// persisted segment is demoted to its mmap form.
func storageCrashConfig(t *testing.T) Config {
	t.Helper()
	params := testParams(testDist(t), crashWorkloadN, 3, 55)
	return Config{
		Params:           params,
		N:                crashWorkloadN,
		MemtableSize:     32, // 120 inserts: three rotations + a final partial
		MaxSegments:      3,
		ResidentBytes:    1,
		CompressPostings: true,
	}
}

// TestStorageCrashHelper is the sacrificial process for the storage
// fault points. The crash hook stays disarmed until every op has been
// applied (each one durable under SyncAlways), so the kill always lands
// in the post-workload flush/retier phase and the parent's reference is
// simply the whole workload. Freezes, compactions, and demotions that
// run concurrently with the op stream fire the same hooks but are
// ignored; the armed phase then forces at least one of each: the final
// flush persists a fourth segment (storage-partial, storage-tmp), pushing the count past
// MaxSegments (compaction-sweep) and the budget retier demotes the
// survivors (tier-demote); lifting the budget promotes them all back
// (tier-promote) and re-imposing it demotes them again.
func TestStorageCrashHelper(t *testing.T) {
	point := os.Getenv(envCrashPoint)
	if point == "" {
		t.Skip("storage crash helper: run only as a subprocess")
	}
	dir := os.Getenv(envCrashDir)
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
	s, err := Recover(storageCrashConfig(t), log)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var armed atomic.Bool
	var hits atomic.Int64
	s.crashHook = func(p string) {
		if p != point || !armed.Load() {
			return
		}
		if int(hits.Add(1)) == trigger {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	}
	applyOps(t, s, crashWorkload(t, crashWorkloadN))
	armed.Store(true)
	s.Flush()
	s.WaitIdle()
	s.SetResidentBudget(0)
	s.WaitIdle()
	s.SetResidentBudget(1)
	s.WaitIdle()
	fmt.Println("HELPER-NOCRASH")
}

// TestStorageCrashRecovery: SIGKILL at every storage fault point must
// recover bit-identically to the uncrashed workload, with no .tmp
// debris surviving the reopen.
func TestStorageCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cases := []struct {
		point   string
		trigger int
	}{
		// Mid segment-file write: the temp file is synced but not yet
		// renamed, so the data's only durable home is still the log.
		{"storage-tmp", 1},
		{"storage-tmp", 2},
		// Mid-stream, after the first repetition section and before the
		// header: a temp file holding only the chunks flushed so far.
		{"storage-partial", 1},
		{"storage-partial", 2},
		// After the merged file's rename, before the inputs' files are
		// removed: both generations on disk, recovery dedups by id.
		{"compaction-sweep", 1},
		// Mid-demote and mid-promote: the swap never happened, the file
		// and the heap form both still cover the segment.
		{"tier-demote", 1},
		{"tier-demote", 3},
		{"tier-promote", 1},
		{"tier-promote", 2},
	}
	ops := crashWorkload(t, crashWorkloadN)
	queries := crashQueries(t, 40)
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s@%d", tc.point, tc.trigger), func(t *testing.T) {
			dir := t.TempDir()
			runCrashHelperNamed(t, "TestStorageCrashHelper", dir, "always", tc.point, "", tc.trigger)

			log, err := wal.Open(dir, wal.Options{SegmentBytes: 1 << 12})
			if err != nil {
				t.Fatalf("wal.Open after crash: %v", err)
			}
			rec, err := Recover(storageCrashConfig(t), log)
			if err != nil {
				log.Close()
				t.Fatalf("Recover after crash: %v", err)
			}
			defer rec.Close()
			rec.WaitIdle()

			tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
			if err != nil {
				t.Fatal(err)
			}
			if len(tmps) != 0 {
				t.Fatalf("torn temp files survived recovery: %v", tmps)
			}

			refCfg := storageCrashConfig(t)
			refCfg.ResidentBytes = 0
			ref, err := New(refCfg)
			if err != nil {
				t.Fatalf("reference New: %v", err)
			}
			defer ref.Close()
			applyOps(t, ref, ops)
			assertEquivalent(t, rec, ref, queries)
		})
	}
}
