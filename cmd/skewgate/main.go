// Command skewgate is a health-checked failover gateway over a set of
// skewsimd backends (one primary plus read-only followers). Clients
// talk to one stable address; the gateway routes around node death:
//
//   - Reads (POST /v1/search, POST /v1/search/batch, GET /v1/stats)
//     round-robin over every healthy backend whose replication lag is
//     within -max-lag-records; a backend that fails mid-request
//     (connection refused, 5xx) is skipped and the request retried on
//     the next candidate, so a dying primary does not surface as
//     client errors.
//   - Writes (POST /v1/insert, POST /v1/delete, POST /v1/snapshot)
//     forward to the current primary — discovered from each backend's
//     /healthz role, so an operator promoting a follower
//     (POST /v1/admin/promote on the follower) redirects writes
//     automatically. 429/503 responses are retried up to -write-retries
//     times honoring Retry-After; with no live primary the gateway
//     answers 503 with an explanatory reason.
//
// Probing: every -probe-interval each backend's /healthz is fetched
// (liveness + role) and, for followers, /metrics is scraped with the
// same strict parser `skewsim metrics` uses — a follower whose
// exposition is malformed or whose skewsim_replica_lag_records gauge
// exceeds the bound is excluded from read routing until it catches up.
//
// The gateway serves its own GET /healthz (backend table) and
// GET /metrics (skewgate_* families).
//
// Example (1 primary + 1 follower):
//
//	skewgate -addr :9090 -backends http://localhost:8080,http://localhost:8081
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"skewsim/internal/obs"
	"skewsim/internal/promscrape"
)

// lagUnknown marks a follower whose lag could not be scraped; it is
// excluded from read routing until a probe succeeds.
const lagUnknown = int64(-1)

// backend is one skewsimd the gateway routes to, with the prober's
// latest view of it.
type backend struct {
	url string

	healthy atomic.Bool
	primary atomic.Bool
	lag     atomic.Int64 // replica lag in records; 0 for a primary

	healthyGauge *obs.Gauge
	lagGauge     *obs.Gauge
}

// eligibleForReads reports whether reads may land here: alive, and
// either the primary (always current) or a follower within the lag
// bound.
func (b *backend) eligibleForReads(maxLag int64) bool {
	if !b.healthy.Load() {
		return false
	}
	if b.primary.Load() {
		return true
	}
	lag := b.lag.Load()
	return lag >= 0 && lag <= maxLag
}

type gateway struct {
	backends []*backend
	client   *http.Client // forwards: no overall timeout, bounded by the client request context
	probes   *http.Client // probes: hard per-request timeout so a wedged backend can't stall the prober
	logger   *slog.Logger
	maxLag   int64
	retries  int
	rr       atomic.Uint64 // read round-robin cursor

	reg           *obs.Registry
	readsOK       *obs.Counter
	readsFailed   *obs.Counter
	writesOK      *obs.Counter
	writesFailed  *obs.Counter
	failovers     *obs.Counter
	noPrimary     *obs.Counter
	probeFailures *obs.Counter
}

func newGateway(urls []string, client, probes *http.Client, logger *slog.Logger, maxLag int64, retries int) *gateway {
	reg := obs.NewRegistry()
	g := &gateway{
		client:  client,
		probes:  probes,
		logger:  logger,
		maxLag:  maxLag,
		retries: retries,
		reg:     reg,
		readsOK: reg.Counter("skewgate_requests_total",
			"Requests proxied, by kind and outcome.", obs.L("kind", "read"), obs.L("outcome", "ok")),
		readsFailed: reg.Counter("skewgate_requests_total",
			"Requests proxied, by kind and outcome.", obs.L("kind", "read"), obs.L("outcome", "error")),
		writesOK: reg.Counter("skewgate_requests_total",
			"Requests proxied, by kind and outcome.", obs.L("kind", "write"), obs.L("outcome", "ok")),
		writesFailed: reg.Counter("skewgate_requests_total",
			"Requests proxied, by kind and outcome.", obs.L("kind", "write"), obs.L("outcome", "error")),
		failovers: reg.Counter("skewgate_failovers_total",
			"Reads retried on another backend after a backend failed mid-request."),
		noPrimary: reg.Counter("skewgate_no_primary_total",
			"Writes refused because no healthy primary was known."),
		probeFailures: reg.Counter("skewgate_probe_failures_total",
			"Health or metrics probes that failed."),
	}
	for _, u := range urls {
		b := &backend{
			url: strings.TrimRight(u, "/"),
			healthyGauge: reg.Gauge("skewgate_backend_healthy",
				"1 while the backend's /healthz answers.", obs.L("backend", u)),
			lagGauge: reg.Gauge("skewgate_backend_lag_records",
				"Backend replication lag in records (-1 unknown, 0 primary).", obs.L("backend", u)),
		}
		b.lag.Store(lagUnknown)
		g.backends = append(g.backends, b)
	}
	return g
}

// probe refreshes one backend: /healthz for liveness and role, then —
// follower only — a strict /metrics scrape for the replication lag.
func (g *gateway) probe(b *backend) {
	var health struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	ok := func() bool {
		resp, err := g.probes.Get(b.url + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		return json.NewDecoder(resp.Body).Decode(&health) == nil && health.Status == "ok"
	}()
	wasHealthy := b.healthy.Load()
	b.healthy.Store(ok)
	if !ok {
		b.healthyGauge.Set(0)
		b.lag.Store(lagUnknown)
		b.lagGauge.Set(lagUnknown)
		g.probeFailures.Inc()
		if wasHealthy {
			g.logger.Warn("backend unhealthy", "backend", b.url)
		}
		return
	}
	b.healthyGauge.Set(1)
	wasPrimary := b.primary.Load()
	b.primary.Store(health.Role == "primary")
	if health.Role == "primary" {
		b.lag.Store(0)
		b.lagGauge.Set(0)
	} else {
		lag := lagUnknown
		if fams, err := promscrape.Scrape(g.probes, b.url); err != nil {
			g.probeFailures.Inc()
		} else if v, found := promscrape.Value(fams, "skewsim_replica_lag_records", nil); found {
			lag = int64(v)
		}
		b.lag.Store(lag)
		b.lagGauge.Set(lag)
	}
	if !wasHealthy || wasPrimary != b.primary.Load() {
		g.logger.Info("backend state", "backend", b.url, "role", health.Role, "lag", b.lag.Load())
	}
}

// probeLoop probes every backend now and then every interval, until
// ctx is done.
func (g *gateway) probeLoop(ctx context.Context, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		for _, b := range g.backends {
			g.probe(b)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// currentPrimary returns the first healthy backend reporting role
// primary (flag order breaks the tie if a stale primary lingers beside
// a promoted follower).
func (g *gateway) currentPrimary() *backend {
	for _, b := range g.backends {
		if b.healthy.Load() && b.primary.Load() {
			return b
		}
	}
	return nil
}

// maxRequestBytes mirrors the daemon's request-body cap; the body must
// be buffered so a failed backend can be retried with the same bytes.
const maxRequestBytes = 64 << 20

// forward replays the client request against target and, on success
// (or a client-error status worth passing through), copies the
// response back. retryable errors (transport, 5xx) return handled =
// false so the caller can try another backend.
func (g *gateway) forward(w http.ResponseWriter, r *http.Request, target string, body []byte) (handled bool, status int, err error) {
	req, err := upstream(r, target, body)
	if err != nil {
		return false, 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false, resp.StatusCode, fmt.Errorf("backend %s: status %d", target, resp.StatusCode)
	}
	relay(w, resp, target)
	return true, resp.StatusCode, nil
}

// upstream builds the replay of r against target: same method, path,
// query and Content-Type, with the buffered body.
func upstream(r *http.Request, target string, body []byte) (*http.Request, error) {
	url := target + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return req, nil
}

// relay copies target's response back to the client: status, body, the
// headers a client acts on, and the backend that answered.
func relay(w http.ResponseWriter, resp *http.Response, target string) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Request-Id"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Skewgate-Backend", target)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// serveRead fails over across eligible backends: start at the
// round-robin cursor, skip ineligible ones, move on when a backend
// dies mid-request. The client sees an error only when every candidate
// failed.
func (g *gateway) serveRead(w http.ResponseWriter, r *http.Request, body []byte) {
	n := len(g.backends)
	start := int(g.rr.Add(1))
	tried := 0
	var lastErr error
	for i := 0; i < n; i++ {
		b := g.backends[(start+i)%n]
		if !b.eligibleForReads(g.maxLag) {
			continue
		}
		if tried > 0 {
			g.failovers.Inc()
		}
		tried++
		handled, _, err := g.forward(w, r, b.url, body)
		if handled {
			g.readsOK.Inc()
			return
		}
		lastErr = err
		// The prober will confirm shortly; stop routing reads here now.
		b.healthy.Store(false)
		b.healthyGauge.Set(0)
		g.logger.Warn("read failover", "backend", b.url, "err", err)
	}
	g.readsFailed.Inc()
	reason := fmt.Sprintf("no backend is healthy and within the staleness bound (%d records)", g.maxLag)
	if lastErr != nil {
		reason = fmt.Sprintf("every eligible backend failed (last: %v)", lastErr)
	}
	gatewayError(w, http.StatusServiceUnavailable, reason)
}

// serveWrite forwards to the current primary with bounded retries:
// transport errors re-resolve the primary (a promotion may have moved
// it), 429/503 honor Retry-After before retrying, anything else passes
// through.
func (g *gateway) serveWrite(w http.ResponseWriter, r *http.Request, body []byte) {
	var lastErr error
	for attempt := 0; attempt <= g.retries; attempt++ {
		p := g.currentPrimary()
		if p == nil {
			g.noPrimary.Inc()
			g.writesFailed.Inc()
			gatewayError(w, http.StatusServiceUnavailable,
				"no healthy primary known; promote a follower (POST /v1/admin/promote) or restart the primary")
			return
		}
		// Peek-forward: issue the request ourselves so a 429/503 can be
		// retried without involving the client.
		req, err := upstream(r, p.url, body)
		if err != nil {
			g.writesFailed.Inc()
			gatewayError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp, err := g.client.Do(req)
		if err != nil {
			lastErr = err
			p.healthy.Store(false)
			p.healthyGauge.Set(0)
			g.logger.Warn("write forward failed", "backend", p.url, "attempt", attempt+1, "err", err)
			continue
		}
		if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) && attempt < g.retries {
			delay := retryAfter(resp, 250*time.Millisecond)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			lastErr = fmt.Errorf("primary overloaded (status %d)", resp.StatusCode)
			select {
			case <-r.Context().Done():
				g.writesFailed.Inc()
				gatewayError(w, http.StatusGatewayTimeout, "client gave up while retrying an overloaded primary")
				return
			case <-time.After(delay):
			}
			continue
		}
		relay(w, resp, p.url)
		resp.Body.Close()
		if resp.StatusCode < 500 {
			g.writesOK.Inc()
		} else {
			g.writesFailed.Inc()
		}
		return
	}
	g.writesFailed.Inc()
	gatewayError(w, http.StatusServiceUnavailable, fmt.Sprintf("write retries exhausted (last: %v)", lastErr))
}

// retryAfter parses a Retry-After seconds value, clamped to [def, 5s].
func retryAfter(resp *http.Response, def time.Duration) time.Duration {
	raw := resp.Header.Get("Retry-After")
	if raw == "" {
		return def
	}
	secs, err := strconv.Atoi(raw)
	if err != nil || secs < 0 {
		return def
	}
	d := time.Duration(secs) * time.Second
	if d < def {
		return def
	}
	if d > 5*time.Second {
		return 5 * time.Second
	}
	return d
}

func gatewayError(w http.ResponseWriter, code int, reason string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": reason})
}

func (g *gateway) handler() http.Handler {
	mux := http.NewServeMux()
	readBody := func(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		if err != nil {
			gatewayError(w, http.StatusBadRequest, err.Error())
			return nil, false
		}
		return body, true
	}
	read := func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		g.serveRead(w, r, body)
	}
	write := func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		g.serveWrite(w, r, body)
	}
	mux.HandleFunc("POST /v1/search", read)
	mux.HandleFunc("POST /v1/search/batch", read)
	mux.HandleFunc("GET /v1/stats", read)
	mux.HandleFunc("POST /v1/insert", write)
	mux.HandleFunc("POST /v1/delete", write)
	mux.HandleFunc("POST /v1/snapshot", write)
	mux.Handle("GET /metrics", g.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		type row struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
			Role    string `json:"role"`
			Lag     int64  `json:"lag_records"`
		}
		rows := make([]row, len(g.backends))
		anyEligible := false
		for i, b := range g.backends {
			role := "follower"
			if b.primary.Load() {
				role = "primary"
			}
			rows[i] = row{URL: b.url, Healthy: b.healthy.Load(), Role: role, Lag: b.lag.Load()}
			if b.eligibleForReads(g.maxLag) {
				anyEligible = true
			}
		}
		status := "ok"
		code := http.StatusOK
		if !anyEligible {
			status, code = "degraded", http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": status, "backends": rows})
	})
	return mux
}

// shutdownDrain bounds how long a stopping gateway waits for in-flight
// requests.
const shutdownDrain = 5 * time.Second

// serve runs the gateway on ln until ctx is done, then drains in-flight
// requests for up to shutdownDrain, stops the prober and drops the idle
// upstream connections: when serve returns, nothing it started runs.
func (g *gateway) serve(ctx context.Context, ln net.Listener, probeInterval time.Duration) error {
	probeCtx, stopProbes := context.WithCancel(context.Background())
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		g.probeLoop(probeCtx, probeInterval)
	}()
	defer func() {
		stopProbes()
		<-probed
		g.client.CloseIdleConnections()
		g.probes.CloseIdleConnections()
	}()
	hs := &http.Server{
		Handler:           g.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), shutdownDrain)
	defer cancel()
	err := hs.Shutdown(drainCtx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func main() {
	var (
		addr          = flag.String("addr", ":9090", "gateway listen address")
		backends      = flag.String("backends", "", "comma-separated skewsimd base URLs (primary + followers)")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "health/lag probe period per backend")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "per-probe and per-forward HTTP timeout base (forwards use the client request context)")
		maxLag        = flag.Int64("max-lag-records", 10000, "followers lagging more than this many records are excluded from read routing")
		writeRetries  = flag.Int("write-retries", 3, "retries for writes on primary overload (429/503, honoring Retry-After) or failover")
		logFormat     = flag.String("log-format", "text", "log format: text or json")
		logLevel      = flag.String("log-level", "info", "log level: debug, info, warn, or error")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skewgate: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		logger.Error("no backends: pass -backends http://host:8080,http://host:8081")
		os.Exit(2)
	}

	// Forwards have no overall client timeout — they inherit the
	// downstream request's context, so long searches are not cut off by
	// the probe timeout. Probes get a hard per-request bound.
	client := &http.Client{Transport: http.DefaultTransport}
	probeClient := &http.Client{Timeout: *probeTimeout}
	g := newGateway(urls, client, probeClient, logger, *maxLag, *writeRetries)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM drains in-flight requests and stops the prober; a
	// second signal kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	logger.Info("skewgate serving", "addr", *addr, "backends", urls,
		"probe_interval", *probeInterval, "max_lag_records", *maxLag)
	if err := g.serve(ctx, ln, *probeInterval); err != nil {
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	}
	logger.Info("shutdown complete")
}
