package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/segment"
	"skewsim/internal/wal"
)

func durableConfig(t *testing.T, dir string, policy wal.SyncPolicy) Config {
	t.Helper()
	cfg := testConfig(t, 512, 3, 3)
	cfg.Segment.MemtableSize = 32
	cfg.Segment.MaxSegments = 3
	cfg.WALDir = dir
	cfg.WAL = wal.Options{Sync: policy, SegmentBytes: 1 << 12}
	return cfg
}

func sampleVectors(t *testing.T, n int, seed uint64) []bitvec.Vector {
	t.Helper()
	d, err := dist.NewProduct(dist.Zipf(64, 0.5, 1.0))
	if err != nil {
		t.Fatalf("NewProduct: %v", err)
	}
	return d.SampleN(hashing.NewSplitMix64(seed), n)
}

// assertServersAgree compares two servers' answers over a query batch:
// identical sorted candidate-bearing top-k lists and identical live
// counts — the server-level "recovered equals uncrashed" assertion.
func assertServersAgree(t *testing.T, got, want *Server, queries []bitvec.Vector) {
	t.Helper()
	if g, w := got.Stats().Live, want.Stats().Live; g != w {
		t.Fatalf("live: recovered %d, reference %d", g, w)
	}
	for qi, q := range queries {
		gm, _ := queryTopK(got, q, 10, bitvec.BraunBlanquetMeasure)
		wm, _ := queryTopK(want, q, 10, bitvec.BraunBlanquetMeasure)
		if !slices.Equal(gm, wm) {
			t.Fatalf("query %d: top-k differs\nrecovered: %v\nreference: %v", qi, gm, wm)
		}
		gb, _, gok := queryBest(got, q, bitvec.BraunBlanquetMeasure)
		wb, _, wok := queryBest(want, q, bitvec.BraunBlanquetMeasure)
		if gok != wok || gb != wb {
			t.Fatalf("query %d: best differs: %v/%v vs %v/%v", qi, gb, gok, wb, wok)
		}
	}
}

// TestServerWALRecovery: a durable server absorbs batch inserts and
// deletes, is abandoned without any snapshot, and a fresh server.New
// over the same WALDir must serve identical results. Table-driven over
// both fsync policies.
func TestServerWALRecovery(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(t, dir, policy)
			data := sampleVectors(t, 300, 11)
			queries := sampleVectors(t, 30, 77)

			srv, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ids, err := srv.InsertBatch(data)
			if err != nil {
				t.Fatalf("InsertBatch: %v", err)
			}
			for i := 0; i < len(ids); i += 9 {
				if !srv.Delete(ids[i]) {
					t.Fatalf("Delete(%d)", ids[i])
				}
			}
			srv.WaitIdle()
			wantNext := srv.NextIDForTest()
			srv.Close()

			rec, err := New(cfg)
			if err != nil {
				t.Fatalf("recovery New: %v", err)
			}
			defer rec.Close()
			if got := rec.NextIDForTest(); got < wantNext {
				t.Fatalf("id counter regressed: %d < %d", got, wantNext)
			}

			ref, err := New(Config{Shards: cfg.Shards, Workers: cfg.Workers, Segment: cfg.Segment})
			if err != nil {
				t.Fatalf("reference New: %v", err)
			}
			defer ref.Close()
			if _, err := ref.InsertBatch(data); err != nil {
				t.Fatalf("reference InsertBatch: %v", err)
			}
			for i := 0; i < len(ids); i += 9 {
				ref.Delete(ids[i])
			}
			assertServersAgree(t, rec, ref, queries)

			// Fresh inserts after recovery must not collide with ids the
			// dead process assigned.
			more, err := rec.InsertBatch(data[:16])
			if err != nil {
				t.Fatalf("post-recovery InsertBatch: %v", err)
			}
			for _, id := range more {
				if slices.Contains(ids, id) {
					t.Fatalf("recovered server reused id %d", id)
				}
			}
		})
	}
}

// TestServerSnapshotPlusTail: snapshot mid-stream, keep writing, then
// recover from snapshot + WAL tail — the reconciliation must equal the
// uncrashed endstate, and the log must keep working afterwards.
func TestServerSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	cfg := durableConfig(t, walDir, wal.SyncNever)
	data := sampleVectors(t, 240, 13)
	queries := sampleVectors(t, 30, 78)

	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	half := len(data) / 2
	ids, err := srv.InsertBatch(data[:half])
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	snapPath := filepath.Join(dir, "index.snap")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.WriteSnapshot(f); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail: more inserts, plus deletes of pre-snapshot ids
	// (the reconciliation must apply them on top of the snapshot state).
	if _, err := srv.InsertBatch(data[half:]); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for i := 0; i < len(ids); i += 7 {
		if !srv.Delete(ids[i]) {
			t.Fatalf("Delete(%d)", ids[i])
		}
	}
	srv.WaitIdle()
	srv.Close()

	sf, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReadSnapshot(sf, cfg)
	sf.Close()
	if err != nil {
		t.Fatalf("ReadSnapshot+tail: %v", err)
	}
	defer rec.Close()

	ref, err := New(Config{Shards: cfg.Shards, Workers: cfg.Workers, Segment: cfg.Segment})
	if err != nil {
		t.Fatalf("reference New: %v", err)
	}
	defer ref.Close()
	refIDs, err := ref.InsertBatch(data[:half])
	if err != nil {
		t.Fatalf("reference InsertBatch: %v", err)
	}
	if !slices.Equal(refIDs, ids) {
		t.Fatalf("reference ids diverged")
	}
	if _, err := ref.InsertBatch(data[half:]); err != nil {
		t.Fatalf("reference InsertBatch: %v", err)
	}
	for i := 0; i < len(ids); i += 7 {
		ref.Delete(ids[i])
	}
	assertServersAgree(t, rec, ref, queries)

	// The recovered server keeps journaling: one more write cycle must
	// land in the same WAL and the servers must still agree.
	if _, err := rec.InsertBatch(data[:8]); err != nil {
		t.Fatalf("post-restore InsertBatch: %v", err)
	}
	if _, err := ref.InsertBatch(data[:8]); err != nil {
		t.Fatalf("reference InsertBatch: %v", err)
	}
	st := rec.Stats()
	if st.WALRecords == 0 || st.WALBytes == 0 {
		t.Fatalf("restored server is not journaling: %+v", st)
	}
	assertServersAgree(t, rec, ref, queries)
}

// TestNotDurableOnly pins the error triage the HTTP handler and the
// daemon preload rely on: durability-only failures keep their ids, any
// real failure does not.
func TestNotDurableOnly(t *testing.T) {
	nd := fmt.Errorf("%w: fsync: disk on fire", segment.ErrNotDurable)
	other := fmt.Errorf("shard exploded")
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{nd, true},
		{errors.Join(nd, nd), true},
		{errors.Join(nd, other), false},
		{other, false},
	}
	for i, tc := range cases {
		if got := NotDurableOnly(tc.err); got != tc.want {
			t.Fatalf("case %d (%v): NotDurableOnly = %v, want %v", i, tc.err, got, tc.want)
		}
	}
}

// NextIDForTest exposes the id counter for recovery assertions.
func (s *Server) NextIDForTest() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}
