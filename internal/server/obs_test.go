package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"skewsim/internal/obs"
)

// Observability tests for the serving layer: per-endpoint counters and
// latency histograms record the right outcomes, the /metrics endpoint
// serves valid exposition with the index gauges, the stalled-shard
// fault path increments the partial-fan-out counters and emits a
// slow-query log line carrying the shard-error stage detail.

func newObsServer(t *testing.T, cfg Config, n int) (*Server, *Metrics) {
	t.Helper()
	m := NewMetrics(obs.NewRegistry())
	cfg.Metrics = m
	srv, _ := newFaultServer(t, cfg, n)
	return srv, m
}

func doJSON(t *testing.T, h http.Handler, method, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Buffer
	if body != "" {
		rd = bytes.NewBufferString(body)
	} else {
		rd = new(bytes.Buffer)
	}
	req := httptest.NewRequest(method, url, rd)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestObsStalledShardMetricsAndSlowLog: a fault-injected stalled shard
// (a helper-run one: only those are abandoned) through the instrumented
// HTTP face must (a) return 200 partial with
// the stalled shard's stage in shard_errors, (b) increment the
// partial-fan-out and abandoned-shard counters and the "partial"
// outcome for the endpoint, and (c) emit a slow-query log line naming
// the endpoint, the partial flag, and the shard errors.
func TestObsStalledShardMetricsAndSlowLog(t *testing.T) {
	cfg := testConfig(t, 400, 2, 4)
	cfg.Workers = 4
	srv, m := newObsServer(t, cfg, 400)

	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	h := NewHandler(srv, HandlerConfig{
		Metrics:   m,
		Logger:    logger,
		SlowQuery: time.Nanosecond, // every request is "slow": the line must fire
	})

	restore := stallHelperShard(2)
	defer restore()

	rr := doJSON(t, h, "POST", "/v1/search?timeout_ms=250", `{"set": [1, 5, 9], "mode": "best"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("X-Request-Id") == "" {
		t.Fatal("response missing X-Request-Id")
	}
	var resp searchResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v (%s)", err, rr.Body)
	}
	if !resp.Partial {
		t.Fatalf("response not marked partial: %s", rr.Body)
	}
	if len(resp.ShardErrors) != 1 || resp.ShardErrors[0].Shard != 2 {
		t.Fatalf("shard_errors = %v, want exactly shard 2", resp.ShardErrors)
	}
	if st := resp.ShardErrors[0].Stage; st != StageRunning {
		t.Fatalf("shard error stage = %q, want %q", st, StageRunning)
	}

	if got := m.PartialFanouts.Value(); got != 1 {
		t.Fatalf("PartialFanouts = %d, want 1", got)
	}
	if got := m.AbandonedShards.Value(); got != 1 {
		t.Fatalf("AbandonedShards = %d, want 1", got)
	}

	line := logBuf.String()
	if line == "" {
		t.Fatal("no slow-query log line emitted")
	}
	for _, want := range []string{`"msg":"slow request"`, `"endpoint":"search"`, `"partial":true`, `"shard_errors"`, `"stage"`, `"request_id"`, `"set_bits":3`} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow-query log line missing %s:\n%s", want, line)
		}
	}

	// The endpoint counter recorded the partial outcome, and the scrape
	// reflects it.
	body := scrapeBody(t, h)
	if !strings.Contains(body, `skewsim_http_requests_total{endpoint="search",outcome="partial"} 1`) {
		t.Fatalf("scrape missing the partial-outcome counter:\n%s", grepFamily(body, "skewsim_http_requests_total"))
	}
	if !strings.Contains(body, "skewsim_fanout_partial_total 1") {
		t.Fatalf("scrape missing skewsim_fanout_partial_total:\n%s", grepFamily(body, "skewsim_fanout_partial_total"))
	}
}

// TestObsEndpointMetrics: ok / bad_request outcomes are attributed to
// the right endpoint, the latency histogram counts every request, and
// the /metrics endpoint serves the index gauges with live values.
func TestObsEndpointMetrics(t *testing.T) {
	cfg := testConfig(t, 400, 2, 2)
	srv, m := newObsServer(t, cfg, 400)
	h := NewHandler(srv, HandlerConfig{Metrics: m})

	if rr := doJSON(t, h, "POST", "/v1/search", `{"set": [1, 5, 9]}`); rr.Code != http.StatusOK {
		t.Fatalf("search: status %d (%s)", rr.Code, rr.Body)
	}
	if rr := doJSON(t, h, "POST", "/v1/search", `not json`); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad search: status %d, want 400", rr.Code)
	}
	if rr := doJSON(t, h, "GET", "/v1/stats", ""); rr.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rr.Code)
	}

	rr := doJSON(t, h, "GET", "/metrics", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body := rr.Body.String()
	for _, want := range []string{
		`skewsim_http_requests_total{endpoint="search",outcome="ok"} 1`,
		`skewsim_http_requests_total{endpoint="search",outcome="bad_request"} 1`,
		`skewsim_http_requests_total{endpoint="stats",outcome="ok"} 1`,
		`skewsim_http_request_seconds_count{endpoint="search"} 2`,
		"skewsim_index_live_vectors 400",
		"skewsim_admission_inflight 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}

	// The segment layer observed the query traversal and the memtable
	// freezes from the 400 inserts.
	if m.Segment.QueryCandidates[0].Count() == 0 {
		t.Fatal("segment query-candidates histogram never observed")
	}
	// Freezes run on the background worker; give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for m.Segment.Freezes.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Segment.Freezes.Value() == 0 {
		t.Fatal("freeze counter never incremented (400 inserts, memtable 64)")
	}
}

// TestObsRuntimeMetrics: the Go collector's CPU time and heap goal are
// exported, with the values runtime/metrics reports (positive once a
// collection has run).
func TestObsRuntimeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	NewMetrics(reg)
	runtime.GC()
	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"skewsim_go_gc_cpu_seconds_total", "skewsim_go_heap_goal_bytes"} {
		v := -1.0
		for _, line := range strings.Split(b.String(), "\n") {
			if val, ok := strings.CutPrefix(line, fam+" "); ok {
				v, _ = strconv.ParseFloat(val, 64)
			}
		}
		if v <= 0 {
			t.Fatalf("%s = %v, want > 0:\n%s", fam, v, grepFamily(b.String(), fam))
		}
	}
}

// TestObsRequestIDsUnique: every response carries a distinct request id
// even without metrics or logging configured.
func TestObsRequestIDsUnique(t *testing.T) {
	srv, _ := newFaultServer(t, testConfig(t, 100, 2, 2), 100)
	h := NewHandler(srv, HandlerConfig{})
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		rr := doJSON(t, h, "GET", "/v1/stats", "")
		id := rr.Header().Get("X-Request-Id")
		if id == "" || seen[id] {
			t.Fatalf("request %d: id %q empty or duplicated", i, id)
		}
		seen[id] = true
	}
}

// TestObsBatchEndpointOutcome: batch search lands on its own endpoint
// label and the batch-labeled query histograms.
func TestObsBatchEndpointOutcome(t *testing.T) {
	cfg := testConfig(t, 400, 2, 2)
	srv, m := newObsServer(t, cfg, 400)
	h := NewHandler(srv, HandlerConfig{Metrics: m})

	if rr := doJSON(t, h, "POST", "/v1/search/batch", `{"sets": [[1, 5], [2, 6]], "mode": "best"}`); rr.Code != http.StatusOK {
		t.Fatalf("batch: status %d (%s)", rr.Code, rr.Body)
	}
	body := scrapeBody(t, h)
	if !strings.Contains(body, `skewsim_http_requests_total{endpoint="search_batch",outcome="ok"} 1`) {
		t.Fatalf("scrape missing the batch ok counter:\n%s", grepFamily(body, "skewsim_http_requests_total"))
	}
	if !strings.Contains(body, `skewsim_query_candidates_count{query="batch"} `) {
		t.Fatalf("scrape missing batch-labeled query histogram:\n%s", grepFamily(body, "skewsim_query_candidates"))
	}
}

func scrapeBody(t *testing.T, h http.Handler) string {
	t.Helper()
	rr := doJSON(t, h, "GET", "/metrics", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rr.Code)
	}
	return rr.Body.String()
}

// grepFamily filters a scrape to one family's lines for a readable
// failure message.
func grepFamily(body, fam string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, fam) {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		return "(family absent from scrape)"
	}
	return strings.Join(out, "\n")
}
