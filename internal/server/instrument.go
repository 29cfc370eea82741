package server

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"skewsim/internal/obs"
	"skewsim/internal/segment"
)

// HTTP request instrumentation: every API route is wrapped by
// instrument, which stamps a request id, captures the response status,
// records the per-endpoint outcome counter and latency histogram, and
// emits the slow-request log line. The per-endpoint children are
// pre-registered at handler construction (obs children must exist
// before the hot path), so serving a request touches only atomics.

// Outcome labels for skewsim_http_requests_total. An outcome is derived
// from the response status plus the partial marker: a 200 that merged
// only a subset of shards counts as "partial", not "ok".
const (
	outcomeOK         = "ok"
	outcomePartial    = "partial"
	outcomeBadRequest = "bad_request" // 4xx other than 429
	outcomeRejected   = "rejected"    // 429, admission queue full
	outcomeShed       = "shed"        // 503, deadline expired while queued
	outcomeTimeout    = "timeout"     // 504, deadline expired in flight
	outcomeError      = "error"       // 5xx other than 503/504
)

var outcomes = []string{outcomeOK, outcomePartial, outcomeBadRequest, outcomeRejected, outcomeShed, outcomeTimeout, outcomeError}

// endpointInstruments is one route's pre-registered children.
type endpointInstruments struct {
	byOutcome map[string]*obs.Counter
	latency   *obs.Histogram
}

func newEndpointInstruments(reg *obs.Registry, endpoint string) *endpointInstruments {
	ins := &endpointInstruments{byOutcome: make(map[string]*obs.Counter, len(outcomes))}
	for _, o := range outcomes {
		ins.byOutcome[o] = reg.Counter("skewsim_http_requests_total",
			"API requests served, by endpoint and outcome.",
			obs.L("endpoint", endpoint), obs.L("outcome", o))
	}
	ins.latency = reg.Histogram("skewsim_http_request_seconds",
		"API request latency, by endpoint.",
		obs.HistogramOpts{MinPow: 13, MaxPow: 37, Scale: 1e-9}, // ~8µs .. ~137s
		obs.L("endpoint", endpoint))
	return ins
}

func outcomeOf(status int, partial bool) string {
	switch {
	case status == http.StatusTooManyRequests:
		return outcomeRejected
	case status == http.StatusServiceUnavailable:
		return outcomeShed
	case status == http.StatusGatewayTimeout:
		return outcomeTimeout
	case status >= 500:
		return outcomeError
	case status >= 400:
		return outcomeBadRequest
	case partial:
		return outcomePartial
	}
	return outcomeOK
}

// statusWriter captures the response status plus the per-request
// observability state the handlers annotate: the partial marker and the
// slow-log attributes.
type statusWriter struct {
	http.ResponseWriter
	status  int
	partial bool
	attrs   []slog.Attr
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// markPartial tags the in-flight request as a partial (degraded)
// answer; annotate attaches attributes to its slow-request log line.
// Both are no-ops on an uninstrumented ResponseWriter.
func markPartial(w http.ResponseWriter) {
	if sw, ok := w.(*statusWriter); ok {
		sw.partial = true
	}
}

func annotate(w http.ResponseWriter, attrs ...slog.Attr) {
	if sw, ok := w.(*statusWriter); ok {
		sw.attrs = append(sw.attrs, attrs...)
	}
}

// annotateFanout attaches a search request's query shape, fan-out
// outcome, and traversal work to its slow-request log line — built only
// when that line can be emitted at all. shape is the mode-specific size
// attribute (set_bits for a single query, batch_queries for a batch).
func annotateFanout(hc HandlerConfig, w http.ResponseWriter, f *Fanout, shape slog.Attr, mode string, stats segment.QueryStats) {
	if f == nil || hc.Logger == nil || hc.SlowQuery <= 0 {
		return
	}
	if mode == "" {
		mode = "best"
	}
	attrs := []slog.Attr{
		shape,
		slog.String("mode", mode),
		slog.Int("shards", f.Shards),
		slog.Int("answered", f.Answered),
		slog.Int("candidates", stats.Candidates),
		slog.Int("distinct", stats.Distinct),
		slog.Int("filters", stats.Filters),
	}
	if len(f.Errs) > 0 {
		attrs = append(attrs, slog.Any("shard_errors", f.Errs))
	}
	annotate(w, attrs...)
}

// Request ids: a per-process random prefix plus a sequence number —
// unique across restarts without coordination, short enough to grep.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Int64
)

func nextRequestID() string {
	return ridPrefix + "-" + strconv.FormatInt(ridSeq.Add(1), 10)
}

// instrument wraps one route: request id, status capture, metrics,
// slow-request logging. With no Metrics and no Logger configured the
// wrapper still stamps X-Request-Id (it is cheap and helps clients
// correlate), but records nothing.
func instrument(hc HandlerConfig, endpoint string, next http.HandlerFunc) http.HandlerFunc {
	var ins *endpointInstruments
	if hc.Metrics != nil {
		ins = newEndpointInstruments(hc.Metrics.Registry(), endpoint)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		rid := nextRequestID()
		sw.Header().Set("X-Request-Id", rid)
		t0 := time.Now()
		next(sw, r)
		elapsed := time.Since(t0)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if ins != nil {
			ins.latency.ObserveDuration(elapsed)
			ins.byOutcome[outcomeOf(sw.status, sw.partial)].Inc()
		}
		if hc.Logger != nil && hc.SlowQuery > 0 && elapsed >= hc.SlowQuery {
			attrs := append([]slog.Attr{
				slog.String("request_id", rid),
				slog.String("endpoint", endpoint),
				slog.Int("status", sw.status),
				slog.Bool("partial", sw.partial),
				slog.Duration("elapsed", elapsed),
			}, sw.attrs...)
			hc.Logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request", attrs...)
		}
	}
}
