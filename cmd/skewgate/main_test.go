package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend simulates a skewsimd: /healthz with a mutable role,
// /metrics with a mutable replication-lag gauge, and trivial data
// endpoints that tag responses with the backend's name.
type fakeBackend struct {
	name string
	ts   *httptest.Server

	role     atomic.Value // "primary" | "follower"
	lag      atomic.Int64
	searches atomic.Int64
	inserts  atomic.Int64
	probes   atomic.Int64 // /healthz calls
	busy     atomic.Int32 // remaining 503 responses for writes
}

func newFakeBackend(t *testing.T, name, role string, lag int64) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{name: name}
	fb.role.Store(role)
	fb.lag.Store(lag)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fb.probes.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","role":%q}`, fb.role.Load())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "# HELP skewsim_replica_lag_records Primary WAL records not yet applied locally.\n"+
			"# TYPE skewsim_replica_lag_records gauge\n"+
			"skewsim_replica_lag_records %d\n", fb.lag.Load())
	})
	mux.HandleFunc("POST /v1/search", func(w http.ResponseWriter, r *http.Request) {
		fb.searches.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"backend":%q}`, fb.name)
	})
	mux.HandleFunc("POST /v1/insert", func(w http.ResponseWriter, r *http.Request) {
		if fb.busy.Load() > 0 {
			fb.busy.Add(-1)
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fb.inserts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"backend":%q}`, fb.name)
	})
	fb.ts = httptest.NewServer(mux)
	t.Cleanup(fb.ts.Close)
	return fb
}

// testGateway builds a gateway over the fakes and runs one probe round
// (no background prober — tests drive probes explicitly).
func testGateway(t *testing.T, maxLag int64, fakes ...*fakeBackend) (*gateway, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(fakes))
	for i, fb := range fakes {
		urls[i] = fb.ts.URL
	}
	client := &http.Client{Timeout: 5 * time.Second}
	g := newGateway(urls, client, client, slog.New(slog.NewTextHandler(io.Discard, nil)), maxLag, 3)
	for _, b := range g.backends {
		g.probe(b)
	}
	ts := httptest.NewServer(g.handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func doJSON(t *testing.T, method, url string) (int, map[string]any, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(`{"vector":[1]}`))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body, resp.Header
}

// TestGatewayReadsSpreadAndFailOver: reads round-robin over eligible
// backends, and a backend dying mid-stream is retried transparently on
// the survivor — the client never sees the failure.
func TestGatewayReadsSpreadAndFailOver(t *testing.T) {
	primary := newFakeBackend(t, "p", "primary", 0)
	follower := newFakeBackend(t, "f", "follower", 0)
	g, ts := testGateway(t, 100, primary, follower)

	for i := 0; i < 10; i++ {
		code, _, _ := doJSON(t, "POST", ts.URL+"/v1/search")
		if code != http.StatusOK {
			t.Fatalf("search %d: status %d", i, code)
		}
	}
	if primary.searches.Load() == 0 || follower.searches.Load() == 0 {
		t.Fatalf("reads not spread: primary=%d follower=%d",
			primary.searches.Load(), follower.searches.Load())
	}

	// Kill the primary without re-probing: the gateway still believes
	// it is healthy, so roughly half the reads hit the corpse — every
	// one must fail over without a client-visible error.
	primary.ts.Close()
	for i := 0; i < 10; i++ {
		code, body, _ := doJSON(t, "POST", ts.URL+"/v1/search")
		if code != http.StatusOK {
			t.Fatalf("post-kill search %d: status %d", i, code)
		}
		if body["backend"] != "f" {
			t.Fatalf("post-kill search %d answered by %v", i, body["backend"])
		}
	}
	if g.failovers.Value() == 0 {
		t.Fatal("expected at least one recorded failover")
	}
}

// TestGatewayWritesFollowPromotion: writes go only to the primary;
// with the primary dead they 503 with a reason, and resume as soon as
// a probe sees the promoted follower's new role.
func TestGatewayWritesFollowPromotion(t *testing.T) {
	primary := newFakeBackend(t, "p", "primary", 0)
	follower := newFakeBackend(t, "f", "follower", 0)
	g, ts := testGateway(t, 100, primary, follower)

	if code, body, _ := doJSON(t, "POST", ts.URL+"/v1/insert"); code != http.StatusOK || body["backend"] != "p" {
		t.Fatalf("insert: status %d backend %v", code, body["backend"])
	}

	primary.ts.Close()
	// First write: transport errors mark the primary down, and with no
	// other primary known the gateway refuses with an explanation.
	code, body, _ := doJSON(t, "POST", ts.URL+"/v1/insert")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("insert with dead primary: status %d", code)
	}
	if reason, _ := body["error"].(string); !strings.Contains(reason, "primary") {
		t.Fatalf("503 reason %q does not mention the primary", body["error"])
	}

	// Operator promotes the follower; the next probe round notices.
	follower.role.Store("primary")
	for _, b := range g.backends {
		g.probe(b)
	}
	code, body, hdr := doJSON(t, "POST", ts.URL+"/v1/insert")
	if code != http.StatusOK || body["backend"] != "f" {
		t.Fatalf("insert after promotion: status %d backend %v", code, body["backend"])
	}
	if got := hdr.Get("X-Skewgate-Backend"); got != follower.ts.URL {
		t.Fatalf("X-Skewgate-Backend = %q, want %q", got, follower.ts.URL)
	}
}

// TestGatewayWriteRetriesOverload: a primary answering 503 with
// Retry-After is retried inside the gateway; the client sees one 200.
func TestGatewayWriteRetriesOverload(t *testing.T) {
	primary := newFakeBackend(t, "p", "primary", 0)
	primary.busy.Store(2)
	_, ts := testGateway(t, 100, primary)

	code, body, _ := doJSON(t, "POST", ts.URL+"/v1/insert")
	if code != http.StatusOK || body["backend"] != "p" {
		t.Fatalf("insert through overload: status %d body %v", code, body)
	}
	if primary.inserts.Load() != 1 {
		t.Fatalf("primary applied %d inserts, want 1", primary.inserts.Load())
	}
}

// TestGatewayStaleFollowerExcluded: a follower beyond -max-lag-records
// serves no reads, and once every backend is ineligible the gateway
// answers 503 with the staleness bound in the reason.
func TestGatewayStaleFollowerExcluded(t *testing.T) {
	primary := newFakeBackend(t, "p", "primary", 0)
	follower := newFakeBackend(t, "f", "follower", 5000)
	g, ts := testGateway(t, 100, primary, follower)

	for i := 0; i < 6; i++ {
		if code, body, _ := doJSON(t, "POST", ts.URL+"/v1/search"); code != http.StatusOK || body["backend"] != "p" {
			t.Fatalf("search %d: status %d backend %v", i, code, body["backend"])
		}
	}
	if follower.searches.Load() != 0 {
		t.Fatalf("stale follower served %d reads", follower.searches.Load())
	}

	primary.ts.Close()
	for _, b := range g.backends {
		g.probe(b)
	}
	code, body, _ := doJSON(t, "POST", ts.URL+"/v1/search")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("search with only a stale follower: status %d", code)
	}
	if reason, _ := body["error"].(string); !strings.Contains(reason, "staleness") {
		t.Fatalf("503 reason %q does not mention staleness", body["error"])
	}

	// The follower catches up; the next probe readmits it.
	follower.lag.Store(0)
	for _, b := range g.backends {
		g.probe(b)
	}
	if code, body, _ := doJSON(t, "POST", ts.URL+"/v1/search"); code != http.StatusOK || body["backend"] != "f" {
		t.Fatalf("search after catch-up: status %d backend %v", code, body["backend"])
	}
}

// TestGatewayHealthz: the gateway's own health endpoint reports the
// backend table and degrades when nothing is eligible.
func TestGatewayHealthz(t *testing.T) {
	primary := newFakeBackend(t, "p", "primary", 0)
	g, ts := testGateway(t, 100, primary)

	code, body, _ := doJSON(t, "GET", ts.URL+"/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: status %d body %v", code, body)
	}

	primary.ts.Close()
	for _, b := range g.backends {
		g.probe(b)
	}
	code, body, _ = doJSON(t, "GET", ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("healthz with dead primary: status %d body %v", code, body)
	}
}

// TestGatewayShutdownStopsProber: a serving gateway runs its prober
// beside the listener; once its context is done, serve returns and the
// goroutine count is back where it was before serve started.
func TestGatewayShutdownStopsProber(t *testing.T) {
	primary := newFakeBackend(t, "p", "primary", 0)
	client := &http.Client{Timeout: 5 * time.Second}
	g := newGateway([]string{primary.ts.URL}, client, client, slog.New(slog.NewTextHandler(io.Discard, nil)), 100, 3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- g.serve(ctx, ln, time.Millisecond) }()
	url := "http://" + ln.Addr().String()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if code, _, _ := doJSON(t, "GET", url+"/healthz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gateway never became healthy")
		}
	}
	if code, body, _ := doJSON(t, "POST", url+"/v1/search"); code != http.StatusOK || body["backend"] != "p" {
		t.Fatalf("search: status %d body %v", code, body)
	}
	http.DefaultClient.CloseIdleConnections()

	cancel()
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after shutdown, %d before serve", runtime.NumGoroutine(), baseline)
		}
	}
	probes := primary.probes.Load()
	time.Sleep(20 * time.Millisecond)
	if got := primary.probes.Load(); got != probes {
		t.Fatalf("backend probed %d more times after shutdown", got-probes)
	}
}

func TestRetryAfterParsing(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	def := 250 * time.Millisecond
	cases := []struct {
		raw  string
		want time.Duration
	}{
		{"", def},
		{"garbage", def},
		{"-3", def},
		{"0", def},
		{"1", time.Second},
		{"600", 5 * time.Second},
	}
	for _, tc := range cases {
		if got := retryAfter(mk(tc.raw), def); got != tc.want {
			t.Errorf("retryAfter(%q) = %v, want %v", tc.raw, got, tc.want)
		}
	}
}
