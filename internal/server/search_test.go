package server

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/segment"
	"skewsim/internal/verify"
)

// searchOne runs one query q under m through Search in req's mode.
func searchOne(srv *Server, q bitvec.Vector, m bitvec.Measure, req Request) (segment.Result, segment.QueryStats) {
	req.Queries, req.Measure = []bitvec.Vector{q}, m
	res, stats, _ := srv.Search(context.Background(), req)
	return res[0], stats
}

func queryBest(srv *Server, q bitvec.Vector, m bitvec.Measure) (segment.Match, segment.QueryStats, bool) {
	res, stats := searchOne(srv, q, m, Request{Mode: segment.ModeBest})
	return res.Match, stats, res.Found
}

func queryFirst(srv *Server, q bitvec.Vector, threshold float64, m bitvec.Measure) (segment.Match, segment.QueryStats, bool) {
	res, stats := searchOne(srv, q, m, Request{Mode: segment.ModeFirst, Thresholds: []float64{threshold}})
	return res.Match, stats, res.Found
}

func queryTopK(srv *Server, q bitvec.Vector, k int, m bitvec.Measure) ([]segment.Match, segment.QueryStats) {
	res, stats := searchOne(srv, q, m, Request{Mode: segment.ModeTopK, K: k})
	return res.Matches, stats
}

// searchBatch is the batch endpoint's search: mode best over every
// query, above thresholds when set.
func searchBatch(srv *Server, qs []bitvec.Vector, thresholds []float64, m bitvec.Measure) ([]segment.Result, segment.QueryStats) {
	res, stats, _ := srv.Search(context.Background(), Request{Queries: qs, Measure: m, Thresholds: thresholds, Mode: segment.ModeBest})
	return res, stats
}

// segmentSearch runs one query on a bare shard over a fresh plan of the
// engines it was built with.
func segmentSearch(sh *segment.SegmentedIndex, eng *segment.Engines, q bitvec.Vector, m bitvec.Measure, req segment.Request) (segment.Result, segment.QueryStats) {
	ses := verify.Acquire(m, q)
	defer verify.Release(ses)
	p := segment.NewPlan(eng)
	p.Reset(q)
	req.Sessions = []*verify.Session{ses}
	res, stats, _ := sh.Search(nil, p, req)
	return res[0], stats
}

// TestSearchTieBreakLowestID: two identical vectors in one shard, the
// older frozen into a segment and the newer still in the memtable, tie
// on similarity 1; mode best answers the lower id, through Search and
// over HTTP.
func TestSearchTieBreakLowestID(t *testing.T) {
	srv, err := New(testConfig(t, 64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	v := bitvec.New(0, 1, 2, 3, 5, 8)
	for want := int64(0); want < 2; want++ {
		if id, err := srv.Insert(v); err != nil || id != want {
			t.Fatalf("Insert = %d, %v; want id %d", id, err, want)
		}
		if want == 0 {
			srv.Flush()
		}
	}
	if st := srv.Stats(); st.Segments != 1 || st.Memtable != 1 {
		t.Fatalf("layout %+v, want id 0 frozen and id 1 in the memtable", st)
	}
	want := segment.Match{ID: 0, Similarity: 1}
	if match, _, found := queryBest(srv, v, bitvec.BraunBlanquetMeasure); !found || match != want {
		t.Fatalf("Search mode best = %+v (found %v), want %+v", match, found, want)
	}
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{}))
	defer ts.Close()
	var resp searchResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/search", searchRequest{Set: v.Bits()}, &resp); code != 200 {
		t.Fatalf("search status %d", code)
	}
	if !resp.Found || len(resp.Matches) != 1 || resp.Matches[0] != (matchJSON{ID: 0, Similarity: 1}) {
		t.Fatalf("POST /v1/search mode best = %+v, want id 0 at similarity 1", resp)
	}
}

// TestHTTPTopKHostileK: a top-k request whose k no server could
// allocate answers exactly as one with k above the corpus size.
func TestHTTPTopKHostileK(t *testing.T) {
	const n = 200
	srv, err := New(testConfig(t, n, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	data := testData(n)
	if _, err := srv.InsertBatch(data); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{}))
	defer ts.Close()
	nonEmpty := 0
	for i, q := range data[:20] {
		var huge, big searchResponse
		for _, c := range []struct {
			k    int
			resp *searchResponse
		}{{1 << 40, &huge}, {10_000, &big}} {
			if code := postJSON(t, ts.Client(), ts.URL+"/v1/search", searchRequest{Set: q.Bits(), Mode: "topk", K: c.k}, c.resp); code != 200 {
				t.Fatalf("query %d k=%d: status %d", i, c.k, code)
			}
		}
		if huge.Found != big.Found || !slices.Equal(huge.Matches, big.Matches) {
			t.Fatalf("query %d: k=1<<40 %+v, k=10000 %+v", i, huge, big)
		}
		if len(big.Matches) > 1 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no query ranked more than one match; the comparison is vacuous")
	}
}
