package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/segment"
)

// HTTP/JSON face of the shard router, served by cmd/skewsimd:
//
//	POST /v1/insert   {"sets": [[3,17,42], ...]}            → {"ids": [...]}
//	POST /v1/delete   {"ids": [0, 7]}                       → {"deleted": 2}
//	POST /v1/search   {"set": [...], "mode": "best"}        → {"found": ..., "matches": [...], "stats": {...}}
//	POST /v1/search/batch {"sets": [[...], ...]}            → {"results": [{"found": ..., "id": ..., "similarity": ...}, ...], "stats": {...}}
//	GET  /v1/stats                                          → aggregated + per-shard sizes
//	POST /v1/snapshot {"path": "index.snap"}                → {"bytes": n}
//
// Search modes: "best" (default; most similar candidate), "first"
// (first candidate at or above "threshold"), "topk" ("k" most similar).
// "measure" names a similarity measure (bitvec.ParseMeasure);
// Braun-Blanquet — the paper's — when omitted. Both endpoints run one
// Server.Search; batch search supports modes "best" and "first", and in
// batch form "first" returns each query's best match at or above the
// threshold, deterministically (ties to the lowest id).

type insertRequest struct {
	Sets [][]uint32 `json:"sets"`
}

type insertResponse struct {
	IDs []int64 `json:"ids"`
	// NotDurable is set when the batch was fully applied and journaled
	// but the configured fsync did not complete: the ids are valid and
	// live, only media durability is unconfirmed. Retrying would insert
	// duplicates under fresh ids.
	NotDurable bool `json:"not_durable,omitempty"`
}

type deleteRequest struct {
	IDs []int64 `json:"ids"`
}

type deleteResponse struct {
	Deleted int `json:"deleted"`
}

type searchRequest struct {
	Set  []uint32 `json:"set"`
	Mode string   `json:"mode"`
	// Threshold is a pointer so an explicit 0 ("any similarity") stays
	// distinguishable from an omitted field (use the default).
	Threshold *float64 `json:"threshold"`
	K         int      `json:"k"`
	Measure   string   `json:"measure"`
}

type matchJSON struct {
	ID         int64   `json:"id"`
	Similarity float64 `json:"similarity"`
}

type searchResponse struct {
	Found   bool               `json:"found"`
	Matches []matchJSON        `json:"matches"`
	Stats   segment.QueryStats `json:"stats"`
	// Partial is set when some shards missed the request deadline: the
	// result merges only the shards that answered (ShardErrors details
	// the rest). See API.md "Errors, deadlines, and overload".
	Partial     bool         `json:"partial,omitempty"`
	ShardErrors []ShardError `json:"shard_errors,omitempty"`
}

type batchSearchRequest struct {
	Sets [][]uint32 `json:"sets"`
	// Mode "best" (default) returns each query's most similar candidate;
	// "first" returns each query's best candidate at or above the
	// threshold. "topk" is not offered in batch form.
	Mode      string   `json:"mode"`
	Threshold *float64 `json:"threshold"`
	Measure   string   `json:"measure"`
}

type batchResultJSON struct {
	Found      bool    `json:"found"`
	ID         int64   `json:"id"`
	Similarity float64 `json:"similarity"`
}

type batchSearchResponse struct {
	Results []batchResultJSON  `json:"results"`
	Stats   segment.QueryStats `json:"stats"`
	// Partial and ShardErrors as in searchResponse: a deadline that a
	// subset of shards missed degrades the batch, per query, to the
	// answering shards' merged winners.
	Partial     bool         `json:"partial,omitempty"`
	ShardErrors []ShardError `json:"shard_errors,omitempty"`
}

type snapshotRequest struct {
	Path string `json:"path"`
}

type snapshotResponse struct {
	Bytes int64 `json:"bytes"`
}

// HandlerConfig tunes the HTTP face.
type HandlerConfig struct {
	// SnapshotDir is the directory /v1/snapshot may write into; request
	// paths are confined to it (relative, no escaping). Empty disables
	// the endpoint — a network client must not get to pick arbitrary
	// server filesystem paths.
	SnapshotDir string
	// DefaultThreshold is used by mode "first" searches that omit a
	// threshold; typically the mode's verification threshold from
	// core.VerificationThreshold.
	DefaultThreshold float64
	// DefaultTimeout is the per-request deadline applied to search
	// requests that do not pass ?timeout_ms=. Zero means no deadline
	// beyond MaxTimeout.
	DefaultTimeout time.Duration
	// MaxTimeout caps every search request's deadline, including
	// requests that ask for more via ?timeout_ms= and requests that ask
	// for none. Zero means no cap.
	MaxTimeout time.Duration
	// Metrics, when non-nil, mounts GET /metrics (Prometheus text
	// exposition) and records per-endpoint request counters and latency
	// histograms. Usually the same Metrics handed to Config.Metrics.
	Metrics *Metrics
	// Logger receives structured server logs: handler panics and, with
	// SlowQuery set, slow-request lines. Nil falls back to
	// slog.Default() for panics and disables slow-request logging.
	Logger *slog.Logger
	// SlowQuery, when positive, logs any request slower than this at
	// level WARN with its request id, endpoint, outcome, and the query
	// shape/fan-out detail the handler annotated. Zero disables.
	SlowQuery time.Duration
	// Promote, when non-nil, is invoked by POST /v1/admin/promote: a
	// follower daemon wires it to stop replicating and leave read-only
	// mode. Nil (a primary) makes the endpoint refuse with 409.
	Promote func() error
}

// NewHandler wraps srv in the HTTP/JSON API above. With hc.Metrics set
// it also serves GET /metrics and instruments every route (see
// instrument.go); with hc.Logger and hc.SlowQuery it logs slow
// requests.
func NewHandler(srv *Server, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, instrument(hc, endpoint, h))
	}
	if hc.Metrics != nil {
		// The exposition endpoint itself is deliberately uninstrumented:
		// scrapes should not dilute the API outcome counters.
		mux.Handle("GET /metrics", hc.Metrics.Registry().Handler())
	}
	// Liveness probe: uninstrumented for the same reason as /metrics.
	mux.HandleFunc("GET /healthz", healthzHandler(srv))
	replicaRoutes(srv, hc, handle)
	handle("POST /v1/insert", "insert", func(w http.ResponseWriter, r *http.Request) {
		if srv.IsReadOnly() {
			httpError(w, http.StatusForbidden, errors.New("insert: read-only follower; send writes to the primary"))
			return
		}
		var req insertRequest
		if !decode(w, r, &req) {
			return
		}
		if len(req.Sets) == 0 {
			httpError(w, http.StatusBadRequest, errors.New("insert: empty sets"))
			return
		}
		vs := make([]bitvec.Vector, len(req.Sets))
		for i, bits := range req.Sets {
			vs[i] = bitvec.New(bits...)
		}
		ids, err := srv.InsertBatch(vs)
		if err != nil && !NotDurableOnly(err) {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		// A durability-only failure still assigned and applied every id;
		// report them (retrying would duplicate the batch).
		writeJSON(w, insertResponse{IDs: ids, NotDurable: err != nil})
	})
	handle("POST /v1/delete", "delete", func(w http.ResponseWriter, r *http.Request) {
		if srv.IsReadOnly() {
			httpError(w, http.StatusForbidden, errors.New("delete: read-only follower; send writes to the primary"))
			return
		}
		var req deleteRequest
		if !decode(w, r, &req) {
			return
		}
		resp := deleteResponse{}
		for _, id := range req.IDs {
			if srv.Delete(id) {
				resp.Deleted++
			}
		}
		writeJSON(w, resp)
	})
	handle("POST /v1/search", "search", func(w http.ResponseWriter, r *http.Request) {
		var req searchRequest
		if !decode(w, r, &req) {
			return
		}
		sreq := Request{Queries: []bitvec.Vector{bitvec.New(req.Set...)}}
		switch req.Mode {
		case "", "best":
		case "first":
			sreq.Mode, sreq.Thresholds = segment.ModeFirst, []float64{threshold(hc, req.Threshold)}
		case "topk":
			sreq.Mode, sreq.K = segment.ModeTopK, req.K
			if sreq.K <= 0 {
				sreq.K = 10
			}
		default:
			httpError(w, http.StatusBadRequest, fmt.Errorf("search: unknown mode %q", req.Mode))
			return
		}
		results, stats, f, ok := serveSearch(w, r, hc, srv, sreq, req.Measure, slog.Int("set_bits", len(req.Set)), req.Mode)
		if !ok {
			return
		}
		res := results[0]
		resp := searchResponse{Found: res.Found, Stats: stats, Partial: f.Partial(), ShardErrors: f.Errs}
		if res.Found && sreq.Mode != segment.ModeTopK {
			res.Matches = []segment.Match{res.Match}
		}
		for _, mt := range res.Matches {
			resp.Matches = append(resp.Matches, matchJSON{ID: mt.ID, Similarity: mt.Similarity})
		}
		writeJSON(w, resp)
	})
	handle("POST /v1/search/batch", "search_batch", func(w http.ResponseWriter, r *http.Request) {
		var req batchSearchRequest
		if !decode(w, r, &req) {
			return
		}
		if len(req.Sets) == 0 {
			httpError(w, http.StatusBadRequest, errors.New("search/batch: empty sets"))
			return
		}
		// Batch "first" is mode best above the threshold: each query's
		// answer is exhaustive and deterministic, not the first hit.
		sreq := Request{Queries: make([]bitvec.Vector, len(req.Sets))}
		switch req.Mode {
		case "", "best":
		case "first":
			sreq.Thresholds = make([]float64, len(req.Sets))
			for i, t := 0, threshold(hc, req.Threshold); i < len(req.Sets); i++ {
				sreq.Thresholds[i] = t
			}
		default:
			httpError(w, http.StatusBadRequest, fmt.Errorf("search/batch: unknown mode %q", req.Mode))
			return
		}
		for i, bits := range req.Sets {
			sreq.Queries[i] = bitvec.New(bits...)
		}
		results, stats, f, ok := serveSearch(w, r, hc, srv, sreq, req.Measure, slog.Int("batch_queries", len(req.Sets)), req.Mode)
		if !ok {
			return
		}
		resp := batchSearchResponse{
			Results:     make([]batchResultJSON, len(results)),
			Stats:       stats,
			Partial:     f.Partial(),
			ShardErrors: f.Errs,
		}
		for i, res := range results {
			if res.Found {
				resp.Results[i] = batchResultJSON{Found: true, ID: res.Match.ID, Similarity: res.Match.Similarity}
			}
		}
		writeJSON(w, resp)
	})
	handle("GET /v1/stats", "stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, srv.Stats())
	})
	handle("POST /v1/snapshot", "snapshot", func(w http.ResponseWriter, r *http.Request) {
		if hc.SnapshotDir == "" {
			httpError(w, http.StatusForbidden, errors.New("snapshot: disabled (no snapshot directory configured)"))
			return
		}
		var req snapshotRequest
		if !decode(w, r, &req) {
			return
		}
		if req.Path == "" {
			httpError(w, http.StatusBadRequest, errors.New("snapshot: path required"))
			return
		}
		// Confine the write to the configured directory: the path must
		// be relative and must not escape (no "..", no absolute, no
		// volume prefix).
		if !filepath.IsLocal(req.Path) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("snapshot: path %q escapes the snapshot directory", req.Path))
			return
		}
		full := filepath.Join(hc.SnapshotDir, req.Path)
		if dir := filepath.Dir(full); dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
		}
		f, err := os.Create(full)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		n, err := srv.WriteSnapshot(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, snapshotResponse{Bytes: n})
	})
	return recoverMiddleware(mux, hc.Logger)
}

// serveSearch is the shared part of both search endpoints: the measure,
// the deadline, the fan-out, the slow-request annotation, and the error
// status or partial marker. It reports false when it has written an
// error response.
func serveSearch(w http.ResponseWriter, r *http.Request, hc HandlerConfig, srv *Server, req Request, measure string, shape slog.Attr, mode string) ([]segment.Result, segment.QueryStats, *Fanout, bool) {
	req.Measure = bitvec.BraunBlanquetMeasure
	if measure != "" {
		var err error
		if req.Measure, err = bitvec.ParseMeasure(measure); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return nil, segment.QueryStats{}, nil, false
		}
	}
	ctx, cancel, err := requestContext(r, hc)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return nil, segment.QueryStats{}, nil, false
	}
	defer cancel()
	results, stats, f := srv.Search(ctx, req)
	annotateFanout(hc, w, f, shape, mode, stats)
	if err := f.Err(); err != nil {
		httpFanoutError(w, err)
		return nil, stats, f, false
	}
	if f.Partial() {
		markPartial(w)
	}
	return results, stats, f, true
}

// threshold is a mode-first request's threshold: its own, or the
// configured default when it omits one.
func threshold(hc HandlerConfig, t *float64) float64 {
	if t != nil {
		return *t
	}
	return hc.DefaultThreshold
}

// requestContext derives the request's deadline context: ?timeout_ms=
// when present (must be a positive integer), else the configured
// default, both capped by the configured max. The CancelFunc is always
// non-nil.
func requestContext(r *http.Request, hc HandlerConfig) (context.Context, context.CancelFunc, error) {
	timeout := hc.DefaultTimeout
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("invalid timeout_ms %q: want a positive integer", raw)
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	if hc.MaxTimeout > 0 && (timeout == 0 || timeout > hc.MaxTimeout) {
		timeout = hc.MaxTimeout
	}
	if timeout <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// httpFanoutError maps a fan-out failure to its status code:
//
//	429 Too Many Requests  admission queue full (ErrOverloaded)
//	503 Service Unavailable deadline expired while queued (ErrShed)
//	504 Gateway Timeout     deadline expired in flight, no shard answered
//	500                     anything else
//
// 429 and 503 carry Retry-After: the rejection did no work, so an
// immediate retry would meet the same wall.
func httpFanoutError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShed):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		httpError(w, http.StatusGatewayTimeout, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

// recoverMiddleware turns a handler panic into a logged 500 instead of
// killing the connection with an opaque reset: one bad request must not
// look like a server crash to every client sharing the connection.
// http.ErrAbortHandler passes through — it is the sanctioned way to
// abort a response and net/http handles it quietly.
func recoverMiddleware(next http.Handler, logger *slog.Logger) http.Handler {
	if logger == nil {
		logger = slog.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			logger.Error("panic serving request",
				"method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			// Best effort: if the handler already wrote, this is a no-op
			// on the status line and the client sees a torn body.
			httpError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// maxRequestBytes bounds request bodies: large enough for bulk insert
// batches (tens of thousands of sets), small enough that one client
// cannot balloon the daemon's memory with a single request.
const maxRequestBytes = 64 << 20

func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing to do beyond noting it server-side.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
