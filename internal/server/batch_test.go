package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
)

// TestServerSearchBatchDifferential asserts a sharded batch search
// against one-query searches: found flags and best similarities must
// match exactly.
func TestServerSearchBatchDifferential(t *testing.T) {
	const n = 400
	cfg := testConfig(t, n, 3, 4)
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	data := testData(n)
	if _, err := srv.InsertBatch(data); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	srv.WaitIdle()

	d := dist.MustProduct(dist.Zipf(64, 0.5, 1.0))
	qs := d.SampleN(hashing.NewSplitMix64(23), 40)
	qs = append(qs, data[5], bitvec.New())
	m := bitvec.BraunBlanquetMeasure

	results, stats := searchBatch(srv, qs, nil, m)
	if len(results) != len(qs) {
		t.Fatalf("SearchBatch returned %d results, want %d", len(results), len(qs))
	}
	anyFound := false
	for k, q := range qs {
		match, _, found := queryBest(srv, q, m)
		if results[k].Found != found {
			t.Errorf("query %d: batch found=%v, single found=%v", k, results[k].Found, found)
			continue
		}
		if !found {
			continue
		}
		anyFound = true
		if results[k].Match.Similarity != match.Similarity {
			t.Errorf("query %d: batch sim %v != single sim %v", k, results[k].Match.Similarity, match.Similarity)
		}
	}
	if !anyFound {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	if stats.Reps == 0 || stats.Candidates == 0 {
		t.Errorf("batch stats look empty: %+v", stats)
	}

	// Threshold mode agrees with the single-query threshold path on
	// existence, and every reported match passes.
	const threshold = 0.4
	thresholds := make([]float64, len(qs))
	for k := range thresholds {
		thresholds[k] = threshold
	}
	tres, _ := searchBatch(srv, qs, thresholds, m)
	for k, q := range qs {
		_, _, found := queryFirst(srv, q, threshold, m)
		if tres[k].Found != found {
			t.Errorf("query %d: batch found=%v, single found=%v", k, tres[k].Found, found)
		}
		if tres[k].Found && tres[k].Match.Similarity < threshold {
			t.Errorf("query %d: batch match sim %v below threshold", k, tres[k].Match.Similarity)
		}
	}

	if out, _ := searchBatch(srv, nil, nil, m); len(out) != 0 {
		t.Errorf("empty batch should return no results, got %v", out)
	}
}

// TestHTTPSearchBatch exercises /v1/search/batch end to end: best and
// first modes agree with the single-query endpoint, and bad requests
// are rejected.
func TestHTTPSearchBatch(t *testing.T) {
	cfg := testConfig(t, 256, 2, 2)
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{DefaultThreshold: 0.5}))
	defer ts.Close()

	var ins insertResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/insert", insertRequest{Sets: [][]uint32{{40, 41, 42, 43}, {41, 42, 43, 44}, {50, 51, 52, 53}}}, &ins); code != 200 {
		t.Fatalf("insert status %d", code)
	}

	sets := [][]uint32{{40, 41, 42, 43}, {50, 51, 52, 53}, {60, 61}}
	var batch batchSearchResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/search/batch", batchSearchRequest{Sets: sets}, &batch); code != 200 {
		t.Fatalf("search/batch status %d", code)
	}
	if len(batch.Results) != len(sets) {
		t.Fatalf("batch results %+v", batch)
	}
	for i, set := range sets {
		var single searchResponse
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/search", searchRequest{Set: set}, &single); code != 200 {
			t.Fatalf("search status %d", code)
		}
		if batch.Results[i].Found != single.Found {
			t.Errorf("set %d: batch found=%v, single found=%v", i, batch.Results[i].Found, single.Found)
			continue
		}
		if single.Found && batch.Results[i].Similarity != single.Matches[0].Similarity {
			t.Errorf("set %d: batch sim %v != single sim %v", i, batch.Results[i].Similarity, single.Matches[0].Similarity)
		}
	}
	if !batch.Results[0].Found || batch.Results[0].ID != ins.IDs[0] || batch.Results[0].Similarity != 1 {
		t.Errorf("exact-match query: %+v", batch.Results[0])
	}
	if batch.Stats.Reps == 0 {
		t.Errorf("batch stats empty: %+v", batch.Stats)
	}

	// First mode with a threshold no candidate of query 3 reaches.
	th := 0.9
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/search/batch", batchSearchRequest{Sets: sets, Mode: "first", Threshold: &th}, &batch); code != 200 {
		t.Fatalf("search/batch first status %d", code)
	}
	if !batch.Results[0].Found || batch.Results[0].Similarity < th {
		t.Errorf("first mode exact match: %+v", batch.Results[0])
	}
	if batch.Results[2].Found {
		t.Errorf("first mode should not match set %v at threshold %v: %+v", sets[2], th, batch.Results[2])
	}

	if code := postJSON(t, ts.Client(), ts.URL+"/v1/search/batch", batchSearchRequest{Sets: sets, Mode: "topk"}, nil); code != http.StatusBadRequest {
		t.Fatalf("topk batch mode status %d, want 400", code)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/search/batch", batchSearchRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", code)
	}
}
