package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/core"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/segment"
	"skewsim/internal/wal"
)

func testConfig(t testing.TB, n, reps, shards int) Config {
	t.Helper()
	d, err := dist.NewProduct(dist.Zipf(64, 0.5, 1.0))
	if err != nil {
		t.Fatalf("NewProduct: %v", err)
	}
	params, err := core.EngineParams(core.Adversarial, d, n, 0.5, core.Options{Seed: 19, Repetitions: reps})
	if err != nil {
		t.Fatalf("EngineParams: %v", err)
	}
	return Config{
		Shards:  shards,
		Segment: segment.Config{Params: params, N: n, MemtableSize: 64, MaxSegments: 4},
	}
}

func testData(n int) []bitvec.Vector {
	d := dist.MustProduct(dist.Zipf(64, 0.5, 1.0))
	return d.SampleN(hashing.NewSplitMix64(31), n)
}

// TestShardedEquivalence: the sharded router answers exactly like one
// unsharded SegmentedIndex over the same data and engines — sharding is
// a throughput decision, never a results decision.
func TestShardedEquivalence(t *testing.T) {
	const n = 500
	cfg := testConfig(t, n, 3, 4)
	data := testData(n)

	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ids, err := srv.InsertBatch(data)
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("ids[%d] = %d, want %d", i, id, i)
		}
	}
	eng, err := segment.NewEngines(cfg.Segment)
	if err != nil {
		t.Fatal(err)
	}
	segCfg := cfg.Segment
	segCfg.Engines = eng
	single, err := segment.New(segCfg)
	if err != nil {
		t.Fatalf("segment.New: %v", err)
	}
	defer single.Close()
	for _, v := range data {
		if _, err := single.Insert(v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Delete the same ids on both sides.
	for id := int64(0); id < n; id += 7 {
		if !srv.Delete(id) || !single.Delete(id) {
			t.Fatalf("Delete(%d) failed", id)
		}
	}
	srv.WaitIdle()
	single.WaitIdle()
	if got, want := srv.Stats().Live, single.Stats().Live; got != want {
		t.Fatalf("live %d, want %d", got, want)
	}

	m := bitvec.BraunBlanquetMeasure
	qs := testData(60)
	for qi, q := range qs {
		// Full ranked candidate list (k = n) must agree entry by entry.
		got, _ := queryTopK(srv, q, n, m)
		top, _ := segmentSearch(single, eng, q, m, segment.Request{Mode: segment.ModeTopK, K: n})
		want := top.Matches
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: sharded top-k %v, single %v", qi, got, want)
		}
		gm, _, gf := queryBest(srv, q, m)
		best, _ := segmentSearch(single, eng, q, m, segment.Request{Mode: segment.ModeBest})
		wm, wf := best.Match, best.Found
		if gf != wf {
			t.Fatalf("query %d: found %v vs %v", qi, gf, wf)
		}
		if gf && gm.Similarity != wm.Similarity {
			t.Fatalf("query %d: best %v vs %v", qi, gm, wm)
		}
		// Threshold query: any hit the router reports must also exist in
		// the single index's candidate set at that similarity.
		tm, _, tf := queryFirst(srv, q, 0.5, m)
		if tf {
			if tm.Similarity < 0.5 {
				t.Fatalf("query %d: threshold hit below threshold: %v", qi, tm)
			}
		}
	}
}

// TestSnapshotRefusesOlderFormats: snapshot and bootstrap streams of
// the earlier formats are refused with an error that names their magic.
func TestSnapshotRefusesOlderFormats(t *testing.T) {
	cfg := testConfig(t, 256, 2, 2)
	for _, magic := range []string{"SKSRV1", "SKREP1"} {
		old := append([]byte(magic), make([]byte, 64)...)
		_, _, err := ReadSnapshot(bytes.NewReader(old), cfg)
		if err == nil || !strings.Contains(err.Error(), magic) {
			t.Fatalf("%s stream: err %v, want a refusal naming its magic", magic, err)
		}
	}
}

func TestServerSnapshotRoundTrip(t *testing.T) {
	const n = 300
	cfg := testConfig(t, n, 3, 3)
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	if _, err := srv.InsertBatch(testData(n)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for id := int64(0); id < n; id += 9 {
		srv.Delete(id)
	}
	srv.WaitIdle()

	var buf bytes.Buffer
	if _, err := srv.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	restored, _, err := ReadSnapshot(&buf, cfg)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	defer restored.Close()
	restored.WaitIdle()
	if got, want := restored.Stats().Live, srv.Stats().Live; got != want {
		t.Fatalf("restored live %d, want %d", got, want)
	}
	m := bitvec.BraunBlanquetMeasure
	for qi, q := range testData(40) {
		got, _ := queryTopK(restored, q, n, m)
		want, _ := queryTopK(srv, q, n, m)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: restored top-k differs", qi)
		}
	}
	// New inserts on the restored server continue the id sequence.
	id, err := restored.Insert(testData(1)[0])
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id != n {
		t.Fatalf("post-restore id = %d, want %d", id, n)
	}
}

// postJSONErr is the goroutine-safe request helper (no t.Fatalf — the
// testing package forbids FailNow off the test goroutine).
func postJSONErr(client *http.Client, url string, body, out interface{}) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, fmt.Errorf("marshal: %w", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, fmt.Errorf("POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

func postJSON(t *testing.T, client *http.Client, url string, body, out interface{}) int {
	t.Helper()
	code, err := postJSONErr(client, url, body, out)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return code
}

// TestHTTPEndpoints exercises every daemon endpoint through httptest.
func TestHTTPEndpoints(t *testing.T) {
	cfg := testConfig(t, 256, 2, 2)
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	snapDir := t.TempDir()
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{SnapshotDir: snapDir, DefaultThreshold: 0.5}))
	defer ts.Close()

	// Element ids are deliberately rare under the Zipf profile: paths
	// only complete (and filters only exist) once Σ log(1/p) reaches
	// log n, which frequent elements like {1,2,3} never do.
	var ins insertResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/insert", insertRequest{Sets: [][]uint32{{40, 41, 42, 43}, {41, 42, 43, 44}, {50, 51, 52, 53}}}, &ins); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	if len(ins.IDs) != 3 {
		t.Fatalf("insert ids %v", ins.IDs)
	}

	var search searchResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/search", searchRequest{Set: []uint32{40, 41, 42, 43}}, &search); code != 200 {
		t.Fatalf("search status %d", code)
	}
	if !search.Found || search.Matches[0].ID != ins.IDs[0] || search.Matches[0].Similarity != 1 {
		t.Fatalf("search response %+v", search)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/search", searchRequest{Set: []uint32{40, 41, 42, 43}, Mode: "topk", K: 2}, &search); code != 200 {
		t.Fatalf("topk status %d", code)
	}
	if len(search.Matches) == 0 || search.Stats.Reps == 0 {
		t.Fatalf("topk response %+v", search)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/search", searchRequest{Set: []uint32{40, 41, 42, 43}, Mode: "bogus"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bogus mode status %d", code)
	}

	var del deleteResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/delete", deleteRequest{IDs: []int64{ins.IDs[0], 999}}, &del); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if del.Deleted != 1 {
		t.Fatalf("deleted %d, want 1", del.Deleted)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/search", searchRequest{Set: []uint32{40, 41, 42, 43}}, &search); code != 200 {
		t.Fatalf("search status %d", code)
	}
	if search.Found && search.Matches[0].ID == ins.IDs[0] {
		t.Fatalf("deleted vector still served: %+v", search)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if st.Shards != 2 || st.Live != 2 {
		t.Fatalf("stats %+v", st)
	}

	// Snapshot paths are relative to the configured directory; escaping
	// paths are rejected outright.
	for _, bad := range []string{"../evil.snap", "/etc/evil.snap"} {
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/snapshot", snapshotRequest{Path: bad}, nil); code != http.StatusBadRequest {
			t.Fatalf("escaping snapshot path %q: status %d, want 400", bad, code)
		}
	}
	var snap snapshotResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/snapshot", snapshotRequest{Path: "srv.snap"}, &snap); code != 200 {
		t.Fatalf("snapshot status %d", code)
	}
	f, err := os.Open(filepath.Join(snapDir, "srv.snap"))
	if err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	defer f.Close()
	if fi, _ := f.Stat(); fi.Size() != snap.Bytes || snap.Bytes == 0 {
		t.Fatalf("snapshot bytes %d, file %d", snap.Bytes, fi.Size())
	}
	restored, _, err := ReadSnapshot(f, cfg)
	if err != nil {
		t.Fatalf("snapshot unreadable: %v", err)
	}
	restored.Close()
}

// TestHTTPConcurrentTraffic is the daemon-level race acceptance: mixed
// insert/delete/search/stats traffic against the handler from many
// goroutines (run under -race by the CI race job).
func TestHTTPConcurrentTraffic(t *testing.T) {
	cfg := testConfig(t, 1024, 2, 4)
	cfg.Segment.MemtableSize = 32 // force freezes under the traffic
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{}))
	defer ts.Close()

	const (
		writers = 4
		readers = 4
		rounds  = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := hashing.NewSplitMix64(uint64(100 + w))
			d := dist.MustProduct(dist.Zipf(64, 0.5, 1.0))
			for i := 0; i < rounds; i++ {
				var ins insertResponse
				sets := [][]uint32{d.Sample(rng).Bits(), d.Sample(rng).Bits()}
				code, err := postJSONErr(ts.Client(), ts.URL+"/v1/insert", insertRequest{Sets: sets}, &ins)
				if err != nil || code != 200 {
					t.Errorf("insert status %d: %v", code, err)
					return
				}
				if i%3 == 0 && len(ins.IDs) > 0 {
					if code, err := postJSONErr(ts.Client(), ts.URL+"/v1/delete", deleteRequest{IDs: ins.IDs[:1]}, nil); err != nil || code != 200 {
						t.Errorf("delete status %d: %v", code, err)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := hashing.NewSplitMix64(uint64(200 + w))
			d := dist.MustProduct(dist.Zipf(64, 0.5, 1.0))
			threshold := 0.5
			for i := 0; i < rounds; i++ {
				mode := []string{"best", "first", "topk"}[i%3]
				if code, err := postJSONErr(ts.Client(), ts.URL+"/v1/search", searchRequest{Set: d.Sample(rng).Bits(), Mode: mode, Threshold: &threshold, K: 3}, nil); err != nil || code != 200 {
					t.Errorf("search status %d: %v", code, err)
					return
				}
				if i%20 == 0 {
					resp, err := ts.Client().Get(ts.URL + "/v1/stats")
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	srv.Flush()
	srv.WaitIdle()
	st := srv.Stats()
	deletesPerWriter := (rounds + 2) / 3 // i%3 == 0 for i in [0, rounds)
	wantLive := writers*rounds*2 - writers*deletesPerWriter
	if st.Live != wantLive {
		t.Fatalf("live = %d, want %d (%+v)", st.Live, wantLive, st)
	}
	if st.Freezes == 0 {
		t.Fatalf("no freezes under traffic: %+v", st)
	}
}

func TestWorkerClampShardFanout(t *testing.T) {
	// A worker bound far above the shard count must not break fan-out
	// (ForEachParallel clamps to n; this is the regression guard at the
	// router layer).
	cfg := testConfig(t, 64, 2, 2)
	cfg.Workers = 64
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	if _, err := srv.InsertBatch(testData(10)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	// Plant a rare vector (guaranteed non-empty filter set under the
	// Zipf profile) and find it through the over-provisioned pool.
	planted := bitvec.New(30, 31, 32, 33)
	if _, err := srv.Insert(planted); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, _, found := queryBest(srv, planted, bitvec.BraunBlanquetMeasure); !found {
		t.Fatal("planted query found nothing")
	}
}

// TestLoadMatchesInsertBatch: at 1, 2 and 4 shards, Load hands out the
// ids InsertBatch would (0…n−1 in input order), leaves each shard one
// segment and an empty memtable, and answers like InsertBatch of the
// same vectors: per shard the same candidate sets, through Search the
// same best match and the same full top-k ranking, ties to the lowest
// id. Load refuses a server that holds anything.
func TestLoadMatchesInsertBatch(t *testing.T) {
	const n = 400
	data := testData(n)
	queries := append(testData(60), data[:20]...)
	m := bitvec.BraunBlanquetMeasure
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig(t, n, 3, shards)
			loaded, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			ids, err := loaded.Load(data)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			for i, id := range ids {
				if id != int64(i) {
					t.Fatalf("ids[%d] = %d, want %d", i, id, i)
				}
			}
			inserted, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer inserted.Close()
			if _, err := inserted.InsertBatch(data); err != nil {
				t.Fatalf("InsertBatch: %v", err)
			}
			inserted.WaitIdle()
			for i, ps := range loaded.Stats().PerShard {
				if ps.Segments != 1 || ps.Memtable != 0 || ps.Flushing != 0 {
					t.Fatalf("shard %d after Load: %+v, want one segment and an empty memtable", i, ps)
				}
			}
			for k, q := range queries {
				for i := range loaded.shards {
					got, _ := loaded.shards[i].CandidatesExt(q)
					want, _ := inserted.shards[i].CandidatesExt(q)
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("query %d shard %d: loaded candidates %v, inserted %v", k, i, got, want)
					}
				}
				for _, req := range []Request{{Mode: segment.ModeBest}, {Mode: segment.ModeTopK, K: n}} {
					got, _ := searchOne(loaded, q, m, req)
					want, _ := searchOne(inserted, q, m, req)
					if got.Found != want.Found || got.Match != want.Match || !slices.Equal(got.Matches, want.Matches) {
						t.Fatalf("query %d mode %d: loaded %+v, inserted %+v", k, req.Mode, got, want)
					}
				}
			}
			if _, err := loaded.Load(data[:1]); err == nil {
				t.Fatal("Load into a loaded server accepted")
			}
			if _, err := inserted.Load(data[:1]); err == nil {
				t.Fatal("Load into a server with inserts accepted")
			}
		})
	}
}

// TestLoadRefusesTombstone: a durable server whose only state is a
// tombstone (a replicated delete of an unknown id) is not empty, so
// Load refuses it before writing its marker or any segment file.
func TestLoadRefusesTombstone(t *testing.T) {
	cfg := testConfig(t, 100, 2, 2)
	cfg.StorageDir = t.TempDir()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.ApplyReplicated(0, []wal.Record{{Op: wal.OpDelete, ID: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Load(testData(100)); err == nil {
		t.Fatal("Load into a server holding a tombstone accepted")
	}
	left, _ := filepath.Glob(filepath.Join(cfg.StorageDir, loadMarker))
	files, _ := filepath.Glob(filepath.Join(cfg.StorageDir, "shard-*", "ckpt-*"))
	if left = append(left, files...); len(left) > 0 {
		t.Fatalf("refused Load left %v behind", left)
	}
}
