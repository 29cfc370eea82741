package main

import (
	"io"
	"log/slog"
	"testing"

	"skewsim/internal/core"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/segment"
	"skewsim/internal/server"
)

// TestRestartOverStorageDirKeepsCorpus: with -storage-dir and no
// -wal-dir, a restart reopens the segment files the first run froze and
// must not preload -data on top of them a second time.
func TestRestartOverStorageDirKeepsCorpus(t *testing.T) {
	const n = 600
	d := dist.MustProduct(dist.Zipf(64, 0.5, 1.0))
	preload := d.SampleN(hashing.NewSplitMix64(7), n)
	params, err := core.EngineParams(core.Adversarial, d, n, 0.5, core.Options{Seed: 1, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		Shards:     2,
		StorageDir: t.TempDir(),
		Segment:    segment.Config{Params: params, N: n, MemtableSize: 64, MaxSegments: 4},
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	first, err := openPrimary(cfg, preload, quiet)
	if err != nil {
		t.Fatalf("first start: %v", err)
	}
	// Without a log only frozen segments are durable: freeze everything,
	// as a daemon that ran long enough would have.
	first.Flush()
	first.WaitIdle()
	if live := first.Stats().Live; live != n {
		t.Fatalf("first start: Live = %d, want %d", live, n)
	}
	first.Close()

	second, err := openPrimary(cfg, preload, quiet)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() { second.WaitIdle(); second.Close() }()
	if live := second.Stats().Live; live != n {
		t.Fatalf("restart over the same storage dir: Live = %d, want %d (preload applied twice?)", live, n)
	}
}
