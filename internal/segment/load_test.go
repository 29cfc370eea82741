package segment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"skewsim/internal/faultinject"
	"skewsim/internal/hashing"
	"skewsim/internal/wal"
)

// Durability of Load: the bulk-loaded segment is its own checkpoint
// file, written before Load returns, with no log record behind it.

// loadedIDs are the ids the Load tests use: a shard's share of a
// daemon preload, ascending with gaps.
func loadedIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(2*i + 1)
	}
	return ids
}

// openDurable opens cfg over its storage directory and, when walDir is
// set, the log there.
func openDurable(t *testing.T, cfg Config, walDir string) *SegmentedIndex {
	t.Helper()
	if walDir == "" {
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := Recover(cfg, log)
	if err != nil {
		log.Close()
		t.Fatalf("Recover: %v", err)
	}
	return s
}

// ckptFiles lists the checkpoint files and torn temporaries in dir.
func ckptFiles(t *testing.T, dir string) (files, tmps []string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"+ckptSuffix))
	if err != nil {
		t.Fatal(err)
	}
	tmps, err = filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return files, tmps
}

// TestStorageLoadCheckpoint: over a storage directory, a WAL and a
// storage directory, or a WAL alone, Load writes one checkpoint file and
// no log record, and a reopen serves exactly the loaded index and
// refuses a second Load.
func TestStorageLoadCheckpoint(t *testing.T) {
	data, queries := storageData(t)
	ids := loadedIDs(len(data))
	for _, tc := range []struct {
		name          string
		storage, logs bool
	}{
		{"storage", true, false},
		{"wal+storage", true, true},
		{"wal", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := storageConfig(t, "", false)
			var walDir string
			if tc.storage {
				cfg.StorageDir = t.TempDir()
			}
			if tc.logs {
				walDir = t.TempDir()
			}
			segDir := cfg.StorageDir
			if segDir == "" {
				segDir = walDir
			}
			s := openDurable(t, cfg, walDir)
			if err := s.Load(ids, data); err != nil {
				s.Close()
				t.Fatalf("Load: %v", err)
			}
			if files, _ := ckptFiles(t, segDir); len(files) != 1 {
				s.Close()
				t.Fatalf("Load left checkpoint files %v, want one", files)
			}
			if st := s.Stats(); st.WAL != nil && st.WAL.LastLSN != 0 {
				s.Close()
				t.Fatalf("Load appended log records: %+v", *st.WAL)
			}
			s.Close()

			ref, err := New(storageConfig(t, "", false))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if err := ref.Load(ids, data); err != nil {
				t.Fatalf("reference Load: %v", err)
			}
			re := openDurable(t, cfg, walDir)
			defer re.Close()
			re.WaitIdle()
			if st := re.Stats(); st.Live != len(data) || st.Segments != 1 {
				t.Fatalf("reopened %+v, want %d live vectors in one segment", st, len(data))
			}
			assertSameAnswers(t, re, ref, queries)
			if err := re.Load(ids[:1], data[:1]); err == nil {
				t.Fatal("Load over a reopened corpus accepted")
			}
		})
	}
}

// TestFaultLoadCheckpointWrite: a failed write of the loaded segment's
// checkpoint fails Load with the write error and loads nothing, in
// memory or on disk; the retry loads.
func TestFaultLoadCheckpointWrite(t *testing.T) {
	data, _ := storageData(t)
	ids := loadedIDs(len(data))
	dir := t.TempDir()
	s := openDurable(t, storageConfig(t, dir, false), "")
	defer s.Close()
	restore := faultinject.Set(faultinject.SegmentCheckpointWrite, func(...any) error { return errInjected })
	err := s.Load(ids, data)
	restore()
	if !errors.Is(err, errInjected) {
		t.Fatalf("Load with a failing checkpoint write: %v, want the injected error", err)
	}
	if st := s.Stats(); st.Total != 0 || st.Segments != 0 {
		t.Fatalf("failed Load left %+v", st)
	}
	if files, tmps := ckptFiles(t, dir); len(files)+len(tmps) != 0 {
		t.Fatalf("failed Load left files %v %v", files, tmps)
	}
	if err := s.Load(ids, data); err != nil {
		t.Fatalf("Load after the fault cleared: %v", err)
	}
	if live := s.Stats().Live; live != len(data) {
		t.Fatalf("Live = %d after the retry, want %d", live, len(data))
	}
}

// TestStorageLoadCrashHelper is the sacrificial process of
// TestStorageLoadCrashRecovery: it loads the storage corpus over a WAL
// directory and SIGKILLs itself at the crash point.
func TestStorageLoadCrashHelper(t *testing.T) {
	point := os.Getenv(envCrashPoint)
	if point == "" {
		t.Skip("load crash helper: run only as a subprocess")
	}
	data, _ := storageData(t)
	s := openDurable(t, storageConfig(t, "", false), os.Getenv(envCrashDir))
	defer s.Close()
	s.crashHook = func(p string) {
		if p == point {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	}
	if err := s.Load(loadedIDs(len(data)), data); err != nil {
		t.Fatal(err)
	}
	fmt.Println("HELPER-NOCRASH")
}

// TestStorageLoadCrashRecovery: a SIGKILL while Load writes its
// checkpoint leaves no corpus — no file, no torn temporary after the
// reopen, no log record — so the restart loads it, exactly once.
func TestStorageLoadCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	data, queries := storageData(t)
	ids := loadedIDs(len(data))
	for _, point := range []string{"storage-partial", "storage-tmp"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			runCrashHelperNamed(t, "TestStorageLoadCrashHelper", dir, "always", point, "", 1)
			cfg := storageConfig(t, "", false)
			s := openDurable(t, cfg, dir)
			st := s.Stats()
			files, tmps := ckptFiles(t, dir)
			if st.Total != 0 || st.WAL.LastLSN != 0 || len(files)+len(tmps) != 0 {
				s.Close()
				t.Fatalf("crash mid-Load left %d vectors, log head %d, files %v %v", st.Total, st.WAL.LastLSN, files, tmps)
			}
			if err := s.Load(ids, data); err != nil {
				s.Close()
				t.Fatalf("Load after the crash: %v", err)
			}
			s.Close()

			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if err := ref.Load(ids, data); err != nil {
				t.Fatal(err)
			}
			re := openDurable(t, cfg, dir)
			defer re.Close()
			if live := re.Stats().Live; live != len(data) {
				t.Fatalf("restart after the reload: Live = %d, want %d", live, len(data))
			}
			assertEquivalent(t, re, ref, queries)
		})
	}
}

// TestResidentBytesCountsMemtables: IndexStats.ResidentBytes counts the
// memtables' builder arenas beside the resident segments'. A Load and
// an InsertBatch plus Flush of the same vectors freeze to identical
// arenas beside identical empty memtables, so they report the same
// bytes exactly. Before that Flush the vectors sit in the live builder,
// over the key table the frozen segment keeps: it holds a posting in 12
// bytes (log entry and chain link) where the CSR holds 4, and a bucket
// in 8 (chain head and tail) where the CSR holds 4 (its offset). So the
// tolerance between the two is after ≤ before ≤ 3·after, and all of the
// before bytes are the memtable's.
func TestResidentBytesCountsMemtables(t *testing.T) {
	const n = 300
	d := testDist(t)
	cfg := Config{Params: testParams(d, n, 3, 111), N: n, MemtableSize: 2 * n}
	data := d.SampleN(hashing.NewSplitMix64(112), n)
	ids := loadedIDs(n)
	loaded, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if err := loaded.Load(ids, data); err != nil {
		t.Fatal(err)
	}
	inserted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inserted.Close()
	if err := inserted.InsertBatch(ids, data); err != nil {
		t.Fatal(err)
	}
	before := inserted.Stats()
	inserted.Flush()
	inserted.WaitIdle()
	after, load := inserted.Stats(), loaded.Stats()
	if before.Memtable != n || before.Segments != 0 || before.MemtableBytes != before.ResidentBytes {
		t.Fatalf("before Flush: %+v, want every vector and byte in the memtable", before)
	}
	if after.Segments != 1 || load.Segments != 1 || after.MemtableBytes != load.MemtableBytes || after.ResidentBytes != load.ResidentBytes {
		t.Fatalf("after Flush %+v, after Load %+v: want equal bytes", after, load)
	}
	if after.MemtableBytes <= 0 || after.MemtableBytes >= after.ResidentBytes/100 {
		t.Fatalf("empty memtable reports %d of %d bytes", after.MemtableBytes, after.ResidentBytes)
	}
	if b, a := before.ResidentBytes, after.ResidentBytes; b < a || b > 3*a {
		t.Fatalf("%d bytes before Flush, %d after: want after ≤ before ≤ 3·after", b, a)
	}
	t.Logf("%d bytes in the memtable, %d frozen", before.ResidentBytes, after.ResidentBytes)
}
