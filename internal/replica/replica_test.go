package replica

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/core"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/segment"
	"skewsim/internal/server"
	"skewsim/internal/wal"
)

// followerConfig builds a durable server config over dir with the same
// engines every test shares (identical Params + shard count on both
// sides is the replication contract).
func followerConfig(t testing.TB, dir string) server.Config {
	t.Helper()
	d, err := dist.NewProduct(dist.Zipf(64, 0.5, 1.0))
	if err != nil {
		t.Fatalf("NewProduct: %v", err)
	}
	params, err := core.EngineParams(core.Adversarial, d, 512, 0.5, core.Options{Seed: 19, Repetitions: 3})
	if err != nil {
		t.Fatalf("EngineParams: %v", err)
	}
	return server.Config{
		Shards:  3,
		Segment: segment.Config{Params: params, N: 512, MemtableSize: 32, MaxSegments: 3},
		WALDir:  dir,
		WAL:     wal.Options{Sync: wal.SyncNever, SegmentBytes: 1 << 12},
	}
}

func sampleVectors(t testing.TB, n int, seed uint64) []bitvec.Vector {
	t.Helper()
	d := dist.MustProduct(dist.Zipf(64, 0.5, 1.0))
	return d.SampleN(hashing.NewSplitMix64(seed), n)
}

// startPrimary spins up a durable primary with its HTTP face.
func startPrimary(t *testing.T, dir string) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(followerConfig(t, dir))
	if err != nil {
		t.Fatalf("New primary: %v", err)
	}
	ts := httptest.NewServer(server.NewHandler(srv, server.HandlerConfig{}))
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// waitCaughtUp polls until every shard's feed has reported caught-up
// (a 204) at some point AFTER this call began, with lag 0. The "after"
// matters: caughtUp flags and lastSeen headers go stale between pull
// ticks, so a shard can look drained on data observed before the
// primary's final writes. Callers quiesce the primary first, so a
// fresh 204 per shard proves the follower really holds everything.
func waitCaughtUp(t *testing.T, r *Replicator, deadline time.Duration) {
	t.Helper()
	start := time.Now()
	stop := start.Add(deadline)
	for time.Now().Before(stop) {
		if r.lagRecords() == 0 && allCaughtUpSince(r, start) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower not caught up after %v (lag %d records)", deadline, r.lagRecords())
}

func allCaughtUpSince(r *Replicator, since time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, up := range r.caughtUp {
		if !up || r.lastCaught[i].Before(since) {
			return false
		}
	}
	return true
}

func allCaughtUp(r *Replicator) bool {
	return allCaughtUpSince(r, time.Time{})
}

// assertAgree compares two servers' answers: identical live counts and
// identical top-k lists over a probe batch.
func assertAgree(t *testing.T, got, want *server.Server, queries []bitvec.Vector) {
	t.Helper()
	if g, w := got.Stats().Live, want.Stats().Live; g != w {
		t.Fatalf("live: follower %d, primary %d", g, w)
	}
	topK := func(srv *server.Server, q bitvec.Vector) []segment.Match {
		res, _, _ := srv.Search(context.Background(), server.Request{Queries: []bitvec.Vector{q}, Measure: bitvec.BraunBlanquetMeasure, Mode: segment.ModeTopK, K: 10})
		return res[0].Matches
	}
	for qi, q := range queries {
		gm, wm := topK(got, q), topK(want, q)
		if !slices.Equal(gm, wm) {
			t.Fatalf("query %d: top-k differs\nfollower: %v\nprimary:  %v", qi, gm, wm)
		}
	}
}

// TestFollowerCatchUpAndPromote: a fresh follower bootstraps, streams
// the live feed, converges to the primary's exact state, and keeps
// accepting writes after promotion.
func TestFollowerCatchUpAndPromote(t *testing.T) {
	primary, ts := startPrimary(t, t.TempDir())
	pre := sampleVectors(t, 200, 5)
	if _, err := primary.InsertBatch(pre); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}

	fsrv, rep, err := Open(Config{
		Primary:  ts.URL,
		Server:   followerConfig(t, t.TempDir()),
		Interval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer fsrv.Close()
	defer rep.Stop()
	if !fsrv.IsReadOnly() {
		t.Fatal("follower not read-only")
	}
	rep.Start()

	// Writes racing the catch-up must ship too.
	ids, err := primary.InsertBatch(sampleVectors(t, 150, 6))
	if err != nil {
		t.Fatalf("InsertBatch 2: %v", err)
	}
	for i := 0; i < len(ids); i += 5 {
		primary.Delete(ids[i])
	}
	waitCaughtUp(t, rep, 10*time.Second)
	assertAgree(t, fsrv, primary, sampleVectors(t, 20, 77))

	if err := rep.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if fsrv.IsReadOnly() {
		t.Fatal("promoted follower still read-only")
	}
	// Fresh inserts must not collide with replicated ids.
	newID, err := fsrv.Insert(bitvec.New(1, 2, 3))
	if err != nil {
		t.Fatalf("post-promotion insert: %v", err)
	}
	for _, old := range ids {
		if newID == old {
			t.Fatalf("promoted primary reused id %d", newID)
		}
	}
}

// TestFollowerRestartResumesFromCursors: stop a follower mid-life,
// reopen over the same directories, and the second incarnation resumes
// from the persisted cursors (no bootstrap) and converges.
func TestFollowerRestartResumesFromCursors(t *testing.T) {
	primary, ts := startPrimary(t, t.TempDir())
	if _, err := primary.InsertBatch(sampleVectors(t, 120, 8)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	fdir := t.TempDir()
	cfg := Config{Primary: ts.URL, Server: followerConfig(t, fdir), Interval: 10 * time.Millisecond}
	fsrv, rep, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rep.Start()
	waitCaughtUp(t, rep, 10*time.Second)
	rep.Stop()
	fsrv.Close()

	// More primary writes while the follower is down.
	if _, err := primary.InsertBatch(sampleVectors(t, 80, 9)); err != nil {
		t.Fatalf("InsertBatch 2: %v", err)
	}

	cfg.Server = followerConfig(t, fdir)
	fsrv2, rep2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fsrv2.Close()
	defer rep2.Stop()
	rep2.Start()
	waitCaughtUp(t, rep2, 10*time.Second)
	assertAgree(t, fsrv2, primary, sampleVectors(t, 20, 78))
}

// TestFollowerBootstrapsFromLoadedPrimary: a primary whose corpus was
// bulk-loaded (one segment per shard, no log record behind it) hands a
// fresh follower all of it through the bootstrap snapshot, the feed
// carries the writes after the load, and a restarted follower still
// serves every vector.
func TestFollowerBootstrapsFromLoadedPrimary(t *testing.T) {
	const n = 300
	primary, ts := startPrimary(t, t.TempDir())
	ids, err := primary.Load(sampleVectors(t, n, 10))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st := primary.Stats(); st.WALRecords != 0 || st.Segments != primary.Shards() {
		t.Fatalf("loaded primary %+v, want one segment per shard and no log record", st)
	}
	fdir := t.TempDir()
	cfg := Config{Primary: ts.URL, Server: followerConfig(t, fdir), Interval: 10 * time.Millisecond}
	fsrv, rep, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if live := fsrv.Stats().Live; live != n {
		rep.Stop()
		fsrv.Close()
		t.Fatalf("bootstrapped follower: Live = %d, want %d", live, n)
	}
	rep.Start()
	if _, err := primary.InsertBatch(sampleVectors(t, 40, 11)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for i := 0; i < n; i += 9 {
		primary.Delete(ids[i])
	}
	queries := append(sampleVectors(t, 20, 79), sampleVectors(t, n, 10)[:10]...)
	waitCaughtUp(t, rep, 10*time.Second)
	assertAgree(t, fsrv, primary, queries)
	rep.Stop()
	fsrv.Close()

	cfg.Server = followerConfig(t, fdir)
	fsrv2, rep2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fsrv2.Close()
	defer rep2.Stop()
	rep2.Start()
	waitCaughtUp(t, rep2, 10*time.Second)
	assertAgree(t, fsrv2, primary, queries)
}
