package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/faultinject"
)

// Overload and fault tests for the serving layer (the `make test-fault`
// suite): a stalled shard degrades to a partial answer within the
// deadline, sustained overload is rejected with 429/503 + Retry-After
// and bounded goroutine growth, a fully-missed deadline is a 504, and
// a handler panic is a logged 500 — never a dropped connection.

// stallShard arms the shard-stall fault point: shard `target` (every
// shard when target < 0) blocks until its request context is done.
// The returned channel receives one signal per stalled call entering
// the stall; call restore to disarm.
func stallShard(target int) (entered chan struct{}, restore func()) {
	entered = make(chan struct{}, 64)
	restore = faultinject.Set(faultinject.ServerShardStall, func(args ...any) error {
		ctx := args[0].(context.Context)
		shard := args[1].(int)
		if target >= 0 && shard != target {
			return nil
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return ctx.Err()
	})
	return entered, restore
}

// stallHelperShard stalls shard target (> 0) the way a wedged disk
// would — deaf to the request context, until restore — and makes sure a
// helper goroutine is the one stalled: shard 0, which the calling
// goroutine starts on, is held until target has entered its stall, so
// the caller cannot have claimed target itself.
func stallHelperShard(target int) (restore func()) {
	var enter, release sync.Once
	entered, released := make(chan struct{}), make(chan struct{})
	disarm := faultinject.Set(faultinject.ServerShardStall, func(args ...any) error {
		ctx := args[0].(context.Context)
		switch args[1].(int) {
		case 0:
			select {
			case <-entered:
			case <-ctx.Done():
			}
		case target:
			enter.Do(func() { close(entered) })
			<-released
			return ctx.Err()
		}
		return nil
	})
	return func() {
		release.Do(func() { close(released) })
		disarm()
	}
}

func newFaultServer(t *testing.T, cfg Config, n int) (*Server, []bitvec.Vector) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	data := testData(n)
	if _, err := srv.InsertBatch(data); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	return srv, data
}

// TestFaultStalledShardPartial: one shard stalling past the deadline
// degrades the query to the other shards' merged answer, returned
// within (a small multiple of) the deadline and marked partial.
func TestFaultStalledShardPartial(t *testing.T) {
	cfg := testConfig(t, 400, 2, 4)
	cfg.Workers = 4 // one worker per shard: the stall must not starve the healthy shards
	srv, data := newFaultServer(t, cfg, 400)

	_, restore := stallShard(0)
	defer restore()

	m := bitvec.BraunBlanquetMeasure
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	_, _, _, f := srv.QueryBestContext(ctx, data[3], m)
	elapsed := time.Since(start)
	if err := f.Err(); err != nil {
		t.Fatalf("stalled-shard query failed entirely: %v", err)
	}
	if !f.Partial() || f.Answered != 3 {
		t.Fatalf("want partial answer from 3/4 shards, got answered=%d partial=%v errs=%v", f.Answered, f.Partial(), f.Errs)
	}
	if len(f.Errs) != 1 || f.Errs[0].Shard != 0 {
		t.Fatalf("shard errors = %v, want exactly shard 0", f.Errs)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("partial answer took %v, deadline was 250ms", elapsed)
	}

	// The stalled fan-out's reaper released the session and admission
	// slot: healthy queries still run and the gate does not leak.
	restore()
	for i := 0; i < 8; i++ {
		if _, _, _, f := srv.QueryBestContext(context.Background(), data[i], m); !f.Complete() {
			t.Fatalf("post-stall query %d not complete: %+v", i, f.Errs)
		}
	}
}

// TestFaultStalledShardPartialHTTP: the same degradation through the
// HTTP face — 200 with "partial": true and the stalled shard detailed.
func TestFaultStalledShardPartialHTTP(t *testing.T) {
	cfg := testConfig(t, 400, 2, 4)
	cfg.Workers = 4
	srv, _ := newFaultServer(t, cfg, 400)
	h := NewHandler(srv, HandlerConfig{})

	_, restore := stallShard(0)
	defer restore()

	body := bytes.NewBufferString(`{"set": [1, 5, 9], "mode": "best"}`)
	req := httptest.NewRequest("POST", "/v1/search?timeout_ms=250", body)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body)
	}
	var resp searchResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v (%s)", err, rr.Body)
	}
	if !resp.Partial {
		t.Fatalf("response not marked partial: %s", rr.Body)
	}
	if len(resp.ShardErrors) != 1 || resp.ShardErrors[0].Shard != 0 {
		t.Fatalf("shard_errors = %v, want exactly shard 0", resp.ShardErrors)
	}
}

// TestFaultGateOverloadAndShed exercises the admission gate directly:
// a full queue rejects immediately (ErrOverloaded), a queued waiter
// whose deadline expires is shed (ErrShed wrapping the context error),
// and a released slot re-admits.
func TestFaultGateOverloadAndShed(t *testing.T) {
	g := newGate(1, 1)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	queued := make(chan error, 1)
	go func() { queued <- g.acquire(ctx) }()
	for g.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Queue full: the third request is rejected without waiting.
	if err := g.acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire with full queue: %v, want ErrOverloaded", err)
	}
	// The queued waiter's deadline expires: shed, with the cause wrapped.
	err := <-queued
	if !errors.Is(err, ErrShed) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire: %v, want ErrShed wrapping DeadlineExceeded", err)
	}
	g.release()
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g.release()
}

// TestFaultOverloadHTTP: with one in-flight slot held by a stalled
// request, further requests get 429 (no queue) or 503 (queued past
// deadline), both with Retry-After — and a rejected burst leaves no
// goroutine growth behind (rejections do no work).
func TestFaultOverloadHTTP(t *testing.T) {
	cfg := testConfig(t, 200, 2, 2)
	cfg.Workers = 2
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 0 // reject the moment the slot is taken
	srv, _ := newFaultServer(t, cfg, 200)
	h := NewHandler(srv, HandlerConfig{})

	entered, restore := stallShard(-1)
	defer restore()

	// Request 1: admitted, stalls on every shard until its deadline.
	var wg sync.WaitGroup
	wg.Add(1)
	first := &httptest.ResponseRecorder{Body: new(bytes.Buffer), Code: 200}
	go func() {
		defer wg.Done()
		req := httptest.NewRequest("POST", "/v1/search?timeout_ms=1000", bytes.NewBufferString(`{"set": [1, 2, 3]}`))
		h.ServeHTTP(first, req)
	}()
	<-entered // request 1 is in flight and holding the slot

	// Burst of rejected requests: all 429, bounded goroutines.
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		req := httptest.NewRequest("POST", "/v1/search", bytes.NewBufferString(`{"set": [1, 2, 3]}`))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusTooManyRequests {
			t.Fatalf("overloaded request %d: status %d, want 429 (%s)", i, rr.Code, rr.Body)
		}
		if rr.Header().Get("Retry-After") == "" {
			t.Fatalf("429 without Retry-After")
		}
	}
	if after := runtime.NumGoroutine(); after > before+20 {
		t.Fatalf("goroutines grew %d → %d across a rejected burst", before, after)
	}

	// Request 1 misses its deadline on every shard: 504.
	wg.Wait()
	if first.Code != http.StatusGatewayTimeout {
		t.Fatalf("fully-timed-out request: status %d, want 504 (%s)", first.Code, first.Body)
	}
}

// TestFaultShedHTTP: with a one-deep admission queue, a queued request
// whose deadline passes while waiting gets 503 + Retry-After.
func TestFaultShedHTTP(t *testing.T) {
	cfg := testConfig(t, 200, 2, 2)
	cfg.Workers = 2
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 1
	srv, _ := newFaultServer(t, cfg, 200)
	h := NewHandler(srv, HandlerConfig{})

	entered, restore := stallShard(-1)
	defer restore()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest("POST", "/v1/search?timeout_ms=1000", bytes.NewBufferString(`{"set": [1, 2, 3]}`))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-entered

	req := httptest.NewRequest("POST", "/v1/search?timeout_ms=50", bytes.NewBufferString(`{"set": [1, 2, 3]}`))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed request: status %d, want 503 (%s)", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatalf("503 without Retry-After")
	}
	wg.Wait()
}

// TestFaultBadTimeout: an unparseable or non-positive timeout_ms is a
// 400, not a silently defaulted deadline.
func TestFaultBadTimeout(t *testing.T) {
	srv, _ := newFaultServer(t, testConfig(t, 100, 2, 2), 100)
	h := NewHandler(srv, HandlerConfig{})
	for _, raw := range []string{"abc", "-5", "0", "1.5"} {
		req := httptest.NewRequest("POST", "/v1/search?timeout_ms="+raw, bytes.NewBufferString(`{"set": [1]}`))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("timeout_ms=%q: status %d, want 400", raw, rr.Code)
		}
	}
}

// TestFaultPanicRecovery: a panicking handler yields a JSON 500 through
// the recovery middleware; http.ErrAbortHandler passes through for
// net/http to handle.
func TestFaultPanicRecovery(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	h := recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom: handler bug")
	}), quiet)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rr.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("panicking handler body %q: want JSON with an error field", rr.Body)
	}

	abort := recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}), quiet)
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Fatal("ErrAbortHandler did not pass through the middleware")
			}
		}()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	}()
}

// TestFaultPartialBatch: batch search degrades per query to the
// answering shards' winners when a shard stalls.
func TestFaultPartialBatch(t *testing.T) {
	cfg := testConfig(t, 400, 2, 4)
	cfg.Workers = 4
	srv, data := newFaultServer(t, cfg, 400)

	_, restore := stallShard(2)
	defer restore()

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	qs := data[:8]
	results, _, f := srv.SearchBatchContext(ctx, qs, nil, bitvec.BraunBlanquetMeasure)
	if err := f.Err(); err != nil {
		t.Fatalf("batch with one stalled shard failed entirely: %v", err)
	}
	if !f.Partial() || f.Answered != 3 {
		t.Fatalf("want partial batch from 3/4 shards, got answered=%d errs=%v", f.Answered, f.Errs)
	}
	if len(results) != len(qs) {
		t.Fatalf("batch returned %d results for %d queries", len(results), len(qs))
	}
	// The answering shards' results must match a direct (stall-free)
	// merge over those same shards.
	restore()
	full, _, ff := srv.SearchBatchContext(context.Background(), qs, nil, bitvec.BraunBlanquetMeasure)
	if !ff.Complete() {
		t.Fatalf("stall-free batch incomplete: %+v", ff.Errs)
	}
	for k := range results {
		if results[k].Found && results[k].Match.Similarity > full[k].Match.Similarity {
			t.Fatalf("query %d: partial result %v beats the full merge %v", k, results[k], full[k])
		}
	}
}
