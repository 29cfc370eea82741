package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"skewsim/internal/dataio"
	"skewsim/internal/wal"
)

// pullFeed drains one shard's replication feed over HTTP from fromLSN
// to the head, decoding the frames back into records.
func pullFeed(t *testing.T, ts *httptest.Server, shard int, fromLSN uint64) []wal.Record {
	t.Helper()
	var recs []wal.Record
	for {
		url := ts.URL + "/v1/replica/wal?shard=" + strconv.Itoa(shard) + "&from_lsn=" + strconv.FormatUint(fromLSN, 10)
		resp, err := ts.Client().Get(url)
		if err != nil {
			t.Fatalf("feed: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("feed body: %v", err)
		}
		switch resp.StatusCode {
		case http.StatusNoContent:
			return recs
		case http.StatusOK:
		default:
			t.Fatalf("feed status %d: %s", resp.StatusCode, body)
		}
		first, err := strconv.ParseUint(resp.Header.Get("X-Skewsim-First-Lsn"), 10, 64)
		if err != nil {
			t.Fatalf("first-lsn header: %v", err)
		}
		last, err := strconv.ParseUint(resp.Header.Get("X-Skewsim-Last-Lsn"), 10, 64)
		if err != nil {
			t.Fatalf("last-lsn header: %v", err)
		}
		want := fromLSN
		if want == 0 {
			want = 1
		}
		if first != want {
			t.Fatalf("feed first lsn %d, requested %d", first, fromLSN)
		}
		n := 0
		fr := dataio.NewFrameReader(bytes.NewReader(body))
		for {
			payload, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("feed frame: %v", err)
			}
			rec, err := wal.DecodeRecord(payload)
			if err != nil {
				t.Fatalf("feed record: %v", err)
			}
			recs = append(recs, rec)
			n++
		}
		if got := first + uint64(n) - 1; got != last {
			t.Fatalf("feed body holds %d records (through %d), header says %d", n, got, last)
		}
		fromLSN = last + 1
	}
}

// TestReplicaFeedAndApply: a follower built purely from the primary's
// HTTP feed answers identically to the primary.
func TestReplicaFeedAndApply(t *testing.T) {
	cfg := durableConfig(t, t.TempDir(), wal.SyncNever)
	primary, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer primary.Close()
	data := sampleVectors(t, 200, 5)
	ids, err := primary.InsertBatch(data)
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for i := 0; i < len(ids); i += 7 {
		primary.Delete(ids[i])
	}
	ts := httptest.NewServer(NewHandler(primary, HandlerConfig{}))
	defer ts.Close()

	fcfg := durableConfig(t, t.TempDir(), wal.SyncNever)
	follower, err := New(fcfg)
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	defer follower.Close()
	follower.SetReadOnly(true)
	for shard := 0; shard < primary.Shards(); shard++ {
		recs := pullFeed(t, ts, shard, 0)
		if err := follower.ApplyReplicated(shard, recs); err != nil {
			t.Fatalf("apply shard %d: %v", shard, err)
		}
		// Re-applying the same batch must be a no-op (resume after a
		// lost cursor write re-sends applied records).
		if err := follower.ApplyReplicated(shard, recs); err != nil {
			t.Fatalf("re-apply shard %d: %v", shard, err)
		}
	}
	follower.ReseedNextID()
	assertServersAgree(t, follower, primary, sampleVectors(t, 20, 99))
}

// TestReplicaSnapshotRoundTrip: bootstrap from the snapshot stream plus
// the feed tail reconstructs the primary exactly, and the returned
// cursors resume the feed without loss.
func TestReplicaSnapshotRoundTrip(t *testing.T) {
	cfg := durableConfig(t, t.TempDir(), wal.SyncNever)
	primary, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer primary.Close()
	if _, err := primary.InsertBatch(sampleVectors(t, 150, 6)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	cut := make([]uint64, primary.Shards())
	for i, sh := range primary.shards {
		cut[i] = sh.AppliedLSN()
	}
	var snap bytes.Buffer
	if _, err := primary.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// Writes after the cut ride the feed, not the snapshot.
	ids, err := primary.InsertBatch(sampleVectors(t, 50, 61))
	if err != nil {
		t.Fatalf("InsertBatch 2: %v", err)
	}
	primary.Delete(ids[0])

	fcfg := durableConfig(t, t.TempDir(), wal.SyncNever)
	follower, cursors, err := ReadSnapshot(&snap, fcfg)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	defer follower.Close()
	if !slices.Equal(cursors, cut) {
		t.Fatalf("cursors %v, want the shards' applied LSNs at the cut %v", cursors, cut)
	}
	ts := httptest.NewServer(NewHandler(primary, HandlerConfig{}))
	defer ts.Close()
	for shard, cur := range cursors {
		recs := pullFeed(t, ts, shard, cur+1)
		if err := follower.ApplyReplicated(shard, recs); err != nil {
			t.Fatalf("apply shard %d: %v", shard, err)
		}
	}
	follower.ReseedNextID()
	assertServersAgree(t, follower, primary, sampleVectors(t, 20, 98))
}

// TestReplicaFeedCompacted: a cursor below the checkpoint-truncated
// prefix gets 410 Gone, the bootstrap signal.
func TestReplicaFeedCompacted(t *testing.T) {
	cfg := durableConfig(t, t.TempDir(), wal.SyncNever)
	cfg.Segment.MemtableSize = 16
	cfg.WAL.SegmentBytes = 1 << 10
	primary, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer primary.Close()
	if _, err := primary.InsertBatch(sampleVectors(t, 400, 7)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	primary.Flush()
	primary.WaitIdle() // checkpoints land, prefix files are deleted
	ts := httptest.NewServer(NewHandler(primary, HandlerConfig{}))
	defer ts.Close()
	gone := false
	for shard := 0; shard < primary.Shards(); shard++ {
		resp, err := ts.Client().Get(ts.URL + "/v1/replica/wal?shard=" + strconv.Itoa(shard) + "&from_lsn=1")
		if err != nil {
			t.Fatalf("feed: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			gone = true
		}
	}
	if !gone {
		t.Fatal("no shard reported 410 Gone after checkpoint truncation")
	}
}

// TestReadOnlyGatingAndPromote: followers refuse HTTP writes with 403,
// report role follower on /healthz, and flip to primary via the
// promote endpoint.
func TestReadOnlyGatingAndPromote(t *testing.T) {
	cfg := testConfig(t, 512, 3, 2)
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	srv.SetReadOnly(true)
	promote := func() error {
		srv.SetReadOnly(false)
		srv.ReseedNextID()
		return nil
	}
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{Promote: promote}))
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/insert", "application/json", bytes.NewBufferString(`{"sets":[[1,2,3]]}`))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower insert status %d, want 403", resp.StatusCode)
	}
	var health struct {
		Role string `json:"role"`
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if health.Role != "follower" {
		t.Fatalf("healthz role %q, want follower", health.Role)
	}

	resp, err = ts.Client().Post(ts.URL+"/v1/admin/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/insert", "application/json", bytes.NewBufferString(`{"sets":[[1,2,3]]}`))
	if err != nil {
		t.Fatalf("insert after promote: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after promote status %d: %s", resp.StatusCode, body)
	}
}

// TestReplicaSnapshotTruncated: a torn snapshot stream must fail the
// parse, never produce a silently short follower.
func TestReplicaSnapshotTruncated(t *testing.T) {
	cfg := durableConfig(t, t.TempDir(), wal.SyncNever)
	primary, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer primary.Close()
	if _, err := primary.InsertBatch(sampleVectors(t, 100, 8)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	var snap bytes.Buffer
	if _, err := primary.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	torn := snap.Bytes()[:snap.Len()*2/3]
	fcfg := durableConfig(t, t.TempDir(), wal.SyncNever)
	_, _, err = ReadSnapshot(bytes.NewReader(torn), fcfg)
	if err == nil {
		t.Fatal("truncated replica snapshot parsed without error")
	}
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		// Any error is acceptable as long as there IS one; this branch
		// just documents the common shape.
		_ = err
	}
}
