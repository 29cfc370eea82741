package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/core"
	"skewsim/internal/dist"
	"skewsim/internal/faultinject"
	"skewsim/internal/hashing"
	"skewsim/internal/segment"
	"skewsim/internal/server"
	"skewsim/internal/wal"
)

const preloadN = 600

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// preloadSetup is a two-shard daemon config over the given segment-file
// and log roots (either may be empty) and the corpus it preloads.
func preloadSetup(t *testing.T, storageDir, walDir string) (server.Config, []bitvec.Vector) {
	t.Helper()
	d := dist.MustProduct(dist.Zipf(64, 0.5, 1.0))
	preload := d.SampleN(hashing.NewSplitMix64(7), preloadN)
	params, err := core.EngineParams(core.Adversarial, d, preloadN, 0.5, core.Options{Seed: 1, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		Shards:     2,
		StorageDir: storageDir,
		WALDir:     walDir,
		WAL:        wal.Options{Sync: wal.SyncAlways},
		Segment:    segment.Config{Params: params, N: preloadN, MemtableSize: 64, MaxSegments: 4},
	}
	return cfg, preload
}

// startLive runs openPrimary over cfg and returns the server's live
// count; the server is closed again.
func startLive(t *testing.T, cfg server.Config, preload []bitvec.Vector) int {
	t.Helper()
	srv, err := openPrimary(cfg, preload, quiet)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	srv.WaitIdle()
	return srv.Stats().Live
}

// TestRestartOverStorageDirKeepsCorpus: over -storage-dir, -wal-dir with
// -storage-dir, or -wal-dir alone, the preload is durable when
// openPrimary returns — one segment per shard, no log record — and a
// restart reopens it and must not preload -data on top of it a second
// time.
func TestRestartOverStorageDirKeepsCorpus(t *testing.T) {
	for _, tc := range []struct {
		name          string
		storage, logs bool
	}{
		{"storage", true, false},
		{"wal+storage", true, true},
		{"wal", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var storageDir, walDir string
			if tc.storage {
				storageDir = t.TempDir()
			}
			if tc.logs {
				walDir = t.TempDir()
			}
			cfg, preload := preloadSetup(t, storageDir, walDir)
			first, err := openPrimary(cfg, preload, quiet)
			if err != nil {
				t.Fatalf("first start: %v", err)
			}
			st := first.Stats()
			first.Close()
			if st.Live != preloadN || st.Segments != cfg.Shards || st.Memtable != 0 || st.WALRecords != 0 {
				t.Fatalf("first start: %+v, want %d live vectors in one segment per shard and no log record", st, preloadN)
			}
			if live := startLive(t, cfg, preload); live != preloadN {
				t.Fatalf("restart over the same directories: Live = %d, want %d (preload applied twice?)", live, preloadN)
			}
		})
	}
}

// TestFaultPreloadCheckpointWrite: when one shard cannot write its
// preload checkpoint, openPrimary fails instead of serving a corpus that
// is not durable, and the next start preloads it whole, once.
func TestFaultPreloadCheckpointWrite(t *testing.T) {
	cfg, preload := preloadSetup(t, t.TempDir(), t.TempDir())
	boom := errors.New("injected checkpoint failure")
	var fired atomic.Int32
	restore := faultinject.Set(faultinject.SegmentCheckpointWrite, func(...any) error {
		if fired.Add(1) == 1 {
			return boom // one shard fails; the other may have written its file
		}
		return nil
	})
	srv, err := openPrimary(cfg, preload, quiet)
	restore()
	if !errors.Is(err, boom) {
		if srv != nil {
			srv.Close()
		}
		t.Fatalf("start with a failing preload checkpoint: %v, want the injected error", err)
	}
	if left := loadLeftovers(cfg.StorageDir); len(left) > 0 {
		t.Fatalf("the failed preload left %v behind", left)
	}
	if live := startLive(t, cfg, preload); live != preloadN {
		t.Fatalf("start after the fault cleared: Live = %d, want %d", live, preloadN)
	}
}

const envPreloadCrash = "SKEWSIMD_PRELOAD_CRASH_DIR"

// TestPreloadCrashHelper is the sacrificial process of
// TestPreloadCrashRestartsOnce: it preloads over the directories under
// its env dir with one worker, so shard 0 writes its checkpoint file
// before shard 1 starts, and SIGKILLs itself as shard 1 begins writing.
func TestPreloadCrashHelper(t *testing.T) {
	dir := os.Getenv(envPreloadCrash)
	if dir == "" {
		t.Skip("preload crash helper: run only as a subprocess")
	}
	cfg, preload := preloadSetup(t, filepath.Join(dir, "seg"), filepath.Join(dir, "wal"))
	cfg.Workers = 1
	var fired int
	faultinject.Set(faultinject.SegmentCheckpointWrite, func(...any) error {
		if fired++; fired == 2 {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		return nil
	})
	openPrimary(cfg, preload, quiet)
}

// loadLeftovers lists the load marker and the segment files under a
// storage root.
func loadLeftovers(root string) []string {
	left, _ := filepath.Glob(filepath.Join(root, "load-pending"))
	files, _ := filepath.Glob(filepath.Join(root, "shard-*", "ckpt-*"))
	return append(left, files...)
}

// crashPreload runs TestPreloadCrashHelper over a fresh directory and
// returns it once the helper has been SIGKILLed with shard 0's preload
// checkpoint on disk and shard 1's not.
func crashPreload(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestPreloadCrashHelper$")
	cmd.Env = append(os.Environ(), envPreloadCrash+"="+dir)
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("helper was not killed (%v):\n%s", err, out)
	}
	if ws, ok := exitErr.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("helper died without SIGKILL (%v):\n%s", err, out)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "seg", "shard-000", "ckpt-*.seg")); len(files) != 1 {
		t.Fatalf("shard 0 holds checkpoint files %v before the restart, want its preload's", files)
	}
	return dir
}

// TestPreloadCrashRestartsOnce: a daemon killed after one shard's
// preload checkpoint landed and before the other's leaves a partial
// corpus on disk; the restart must not serve it, but preload the corpus
// whole, exactly once.
func TestPreloadCrashRestartsOnce(t *testing.T) {
	dir := crashPreload(t)
	cfg, preload := preloadSetup(t, filepath.Join(dir, "seg"), filepath.Join(dir, "wal"))
	if live := startLive(t, cfg, preload); live != preloadN {
		t.Fatalf("restart after a crash mid-preload: Live = %d, want %d", live, preloadN)
	}
	if live := startLive(t, cfg, preload); live != preloadN {
		t.Fatalf("second restart: Live = %d, want %d", live, preloadN)
	}
}

// TestPreloadCrashThenRestore: -restore with -wal-dir over the
// directories of a daemon killed mid-preload must not serve the partial
// corpus, and must not leave the load marker behind for a later start
// to act on: the vectors inserted and checkpointed after the restore
// survive the next restart.
func TestPreloadCrashThenRestore(t *testing.T) {
	dir := crashPreload(t)
	cfg, preload := preloadSetup(t, filepath.Join(dir, "seg"), filepath.Join(dir, "wal"))
	empty, err := server.New(server.Config{Shards: cfg.Shards, Segment: cfg.Segment})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	_, err = empty.WriteSnapshot(&snap)
	empty.Close()
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := server.ReadSnapshot(&snap, cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if live := srv.Stats().Live; live != 0 {
		srv.Close()
		t.Fatalf("restore of an empty snapshot: Live = %d, want 0 (partial preload served)", live)
	}
	const n = 200
	if _, err := srv.InsertBatch(preload[:n]); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.Flush()
	srv.WaitIdle()
	st := srv.Stats()
	srv.Close()
	if st.Freezes == 0 {
		t.Fatalf("after the restore: %+v, want the inserts frozen into checkpoint files", st)
	}
	if live := startLive(t, cfg, preload); live != n {
		t.Fatalf("restart after the restore: Live = %d, want the %d vectors inserted after it", live, n)
	}
}
