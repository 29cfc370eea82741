// Command skewsimd serves a sharded, online-mutable SkewSearch index
// over HTTP/JSON: inserts and deletes apply immediately (segmented
// memtable + frozen CSR segments per shard), queries fan out across
// shards, and the index survives crashes through per-shard write-ahead
// logs (-wal-dir) and/or explicit snapshots (/v1/snapshot + -restore).
//
// Endpoints (see API.md at the repository root for full request and
// response schemas):
//
//	POST /v1/insert    add sets, returns assigned ids
//	POST /v1/delete    tombstone ids
//	POST /v1/search    best / first-above-threshold / top-k search
//	GET  /v1/stats     aggregated + per-shard sizes, incl. WAL sizes
//	GET  /metrics      Prometheus text exposition (see API.md "Metrics")
//	POST /v1/snapshot  persist the index to a server-local file
//
// Durability: with -wal-dir every accepted insert/delete is journaled
// before it is applied, completed background freezes checkpoint the log,
// and startup recovers whatever the directory holds — no explicit
// restore step needed after a crash or kill. -fsync picks the policy:
// "always" group-commits an fsync per request batch (survives power
// loss), "never" leaves flushing to the OS (survives process crashes).
// -restore composes with -wal-dir: the snapshot loads first and the log
// tail reconciles on top.
//
// Observability: logs are structured (log/slog; -log-format text|json,
// -log-level debug|info|warn|error), every request carries an
// X-Request-Id, requests slower than -slow-query-ms are logged with
// their query shape and shard fan-out, and -pprof-addr serves
// net/http/pprof on a separate listener (keep it off public interfaces;
// profiles expose internals).
//
// Replication: -replica-of <primary-url> starts the daemon as a
// read-only follower. It bootstraps from the primary's streamed
// snapshot (or resumes from its persisted cursors), then continuously
// pulls per-shard WAL frames from GET /v1/replica/wal and applies
// them; /healthz reports role "follower" and writes get 403 until
// POST /v1/admin/promote flips it to a primary. The follower's engine
// flags (-shards, -seed, -reps, -b1/-alpha, -n, and -data/-dim/-pmax)
// must match the primary's — shard placement and filter mappings are
// derived from them. cmd/skewgate routes clients across a primary and
// its followers with automatic failover.
//
// The engine runs the paper's adversarial scheme by default (-b1), or
// the correlated scheme with -alpha. Item probabilities come from a
// warm-start dataset (-data, the §9 estimation strategy) or from a
// synthetic Zipf profile (-dim/-pmax) when starting empty.
//
// Examples:
//
//	skewsimd -addr :8080 -data s.txt -b1 0.5
//	skewsimd -addr :8080 -dim 4096 -n 100000 -shards 8
//	skewsimd -wal-dir ./wal -fsync always -data s.txt    # durable serving
//	skewsimd -restore index.snap -wal-dir ./wal          # snapshot + log tail
//	skewsimd -addr :8081 -wal-dir ./wal2 -replica-of http://localhost:8080
//	skewsimd -log-format json -slow-query-ms 250 -pprof-addr 127.0.0.1:6060
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/core"
	"skewsim/internal/dataio"
	"skewsim/internal/dist"
	"skewsim/internal/obs"
	"skewsim/internal/replica"
	"skewsim/internal/segment"
	"skewsim/internal/server"
	"skewsim/internal/wal"
)

// byteCount renders a byte total for startup logs.
func byteCount(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// openPrimary builds the server over whatever durable state cfg's
// -wal-dir and -storage-dir hold (fresh directories start empty) and
// preloads the warm-start dataset only into a server with no durable
// history: one that reopened segment files or vectors must not get the
// dataset a second time, and "recovered but everything was deleted"
// (live 0, a log record or a tombstone left) must not resurrect it:
// the server has durable history exactly when server.Load would refuse
// it. The preload is server.Load: one static-built segment per shard,
// written as one checkpoint file per shard when the server is durable.
func openPrimary(cfg server.Config, preload []bitvec.Vector, logger *slog.Logger) (*server.Server, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building server: %w", err)
	}
	st := srv.Stats()
	switch {
	case srv.Loadable() != nil:
		logger.Info("recovered durable state", "wal_dir", cfg.WALDir, "storage_dir", cfg.StorageDir,
			"live", st.Live, "segments", st.Segments, "wal_records", st.WALRecords, "wal_bytes", byteCount(st.WALBytes))
	case len(preload) > 0:
		// A failed checkpoint write fails the start instead of serving
		// a corpus that is not durable.
		if _, err := srv.Load(preload); err != nil {
			srv.Close()
			return nil, fmt.Errorf("preloading: %w", err)
		}
		logger.Info("preloaded warm-start dataset", "vectors", len(preload), "segments", srv.Stats().Segments)
	}
	return srv, nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		shards      = flag.Int("shards", 4, "SegmentedIndex shards")
		workers     = flag.Int("workers", 0, "fan-out worker bound (0 = GOMAXPROCS, clamped to shards)")
		memtable    = flag.Int("memtable", 4096, "vectors per memtable before freezing")
		maxSegments = flag.Int("max-segments", 4, "per-shard segment count that triggers compaction")
		reps        = flag.Int("reps", 0, "filter repetitions (0 = ceil(log2 n)+1)")
		b1          = flag.Float64("b1", 0.5, "adversarial similarity threshold")
		alpha       = flag.Float64("alpha", 0, "correlated mode with this correlation (overrides -b1)")
		seed        = flag.Uint64("seed", 1, "random seed")
		n           = flag.Int("n", 1<<16, "expected steady-state dataset size (stopping rule)")
		dim         = flag.Int("dim", 1024, "universe size for the synthetic Zipf profile (no -data)")
		pmax        = flag.Float64("pmax", 0.5, "max item probability for the synthetic Zipf profile")
		dataPath    = flag.String("data", "", "warm-start dataset: estimate probabilities from it and preload it")
		restorePath = flag.String("restore", "", "restore a /v1/snapshot file at startup instead of starting empty")
		snapshotDir = flag.String("snapshot-dir", ".", "directory /v1/snapshot may write into (empty disables the endpoint)")
		walDir      = flag.String("wal-dir", "", "write-ahead log root (per-shard logs under it); enables crash recovery at startup")
		storageDir  = flag.String("storage-dir", "", "segment-file root (per-shard SKSEG1 files under it); persists frozen segments and enables beyond-RAM cold serving")
		residentMB  = flag.Int64("resident-budget-mb", 0, "heap budget in MiB for frozen-segment arenas across all shards; segments past it serve mmap-backed cold (0 = unlimited; requires -storage-dir or -wal-dir)")
		compressSeg = flag.Bool("compress-postings", false, "write segment files with delta+varint compressed posting arenas")
		fsyncMode   = flag.String("fsync", "always", "WAL fsync policy: always (group commit per batch) or never (OS writeback)")
		walSegBytes = flag.Int64("wal-segment-bytes", 0, "WAL file rotation size (0 = 4 MiB default)")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window for in-flight requests on SIGINT/SIGTERM")
		maxInflight = flag.Int("max-inflight", 0, "admission bound on concurrent query fan-outs (0 = 4x GOMAXPROCS, negative disables)")
		maxQueue    = flag.Int("max-queue", -1, "admission wait-queue depth past max-inflight; beyond it requests get 429 (0 rejects immediately, negative = 4x max-inflight)")
		defTimeout  = flag.Duration("default-timeout", 0, "deadline for search requests without ?timeout_ms= (0 = none beyond -max-timeout)")
		maxTimeout  = flag.Duration("max-timeout", 30*time.Second, "cap on every search deadline, incl. explicit ?timeout_ms= (0 = uncapped)")
		logFormat   = flag.String("log-format", "text", "log format: text (logfmt-style) or json")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, or error")
		slowQueryMS = flag.Int64("slow-query-ms", 0, "log requests slower than this many milliseconds, with query shape and fan-out detail (0 disables)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty disables; bind to localhost)")
		replicaOf   = flag.String("replica-of", "", "follow this primary base URL as a read-only replica (requires -wal-dir; engine flags must match the primary's)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skewsimd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	var (
		d       *dist.Product
		preload []bitvec.Vector
	)
	if *dataPath != "" {
		preload, err = dataio.ReadFile(*dataPath) // .gz dumps stream transparently
		if err != nil {
			fatal("reading warm-start dataset", "err", err)
		}
		if d, err = dist.EstimateProduct(preload, 0); err != nil {
			fatal("estimating probabilities", "err", err)
		}
	} else {
		if d, err = dist.NewProduct(dist.Zipf(*dim, *pmax, 1.0)); err != nil {
			fatal("building synthetic profile", "err", err)
		}
	}

	mode, param := core.Adversarial, *b1
	if *alpha > 0 {
		mode, param = core.Correlated, *alpha
	}
	params, err := core.EngineParams(mode, d, *n, param, core.Options{Seed: *seed, Repetitions: *reps})
	if err != nil {
		fatal("deriving engine parameters", "err", err)
	}
	metrics := server.NewMetrics(obs.NewRegistry())
	cfg := server.Config{
		Shards:      *shards,
		Workers:     *workers,
		MaxInFlight: *maxInflight,
		MaxQueue:    *maxQueue,
		Metrics:     metrics,
		Segment: segment.Config{
			Params:       params,
			N:            *n,
			MemtableSize: *memtable,
			MaxSegments:  *maxSegments,
		},
		WALDir:           *walDir,
		StorageDir:       *storageDir,
		ResidentBytes:    *residentMB << 20,
		CompressPostings: *compressSeg,
	}
	if *residentMB > 0 && *storageDir == "" && *walDir == "" {
		fatal("-resident-budget-mb requires -storage-dir or -wal-dir (cold segments serve from their files)")
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			fatal("parsing -fsync", "err", err)
		}
		cfg.WAL = wal.Options{Sync: policy, SegmentBytes: *walSegBytes}
	}

	var (
		srv *server.Server
		rep *replica.Replicator
	)
	if *replicaOf != "" {
		if *walDir == "" {
			fatal("-replica-of requires -wal-dir (the follower journals its applies and persists its cursors there)")
		}
		if *restorePath != "" {
			fatal("-restore and -replica-of are mutually exclusive (the follower bootstraps from the primary)")
		}
		srv, rep, err = replica.Open(replica.Config{
			Primary: strings.TrimRight(*replicaOf, "/"),
			Server:  cfg,
			Logger:  logger,
			Metrics: replica.NewMetrics(metrics.Registry()),
			OnFatal: func(err error) {
				// The primary truncated past our cursor (or the configs
				// disagree): nothing this process can do. Exit so the
				// supervisor restarts us into a clean bootstrap.
				logger.Error("replication cannot continue; exiting", "err", err)
				os.Exit(1)
			},
		})
		if err != nil {
			fatal("opening follower", "primary", *replicaOf, "err", err)
		}
		rep.Start()
		logger.Info("following primary", "primary", *replicaOf, "live", srv.Stats().Live)
	} else if *restorePath != "" {
		f, err := os.Open(*restorePath)
		if err != nil {
			fatal("opening snapshot", "err", err)
		}
		// With -wal-dir this also replays each shard's log tail on top of
		// the snapshot, so a snapshot older than the log loses nothing.
		srv, _, err = server.ReadSnapshot(f, cfg)
		f.Close()
		if err != nil {
			fatal("restoring snapshot", "path", *restorePath, "err", err)
		}
		logger.Info("restored snapshot", "path", *restorePath, "live", srv.Stats().Live)
	} else {
		if srv, err = openPrimary(cfg, preload, logger); err != nil {
			fatal("opening server", "err", err)
		}
	}
	// No deferred Close: both exit paths below close srv explicitly,
	// and fatal (os.Exit) would skip a defer anyway.

	// Threshold-mode searches that omit a threshold fall back to the
	// mode's verification threshold (b1, or α/1.3 in correlated mode).
	verify, err := core.VerificationThreshold(mode, param)
	if err != nil {
		fatal("deriving verification threshold", "err", err)
	}
	hcfg := server.HandlerConfig{
		SnapshotDir:      *snapshotDir,
		DefaultThreshold: verify,
		DefaultTimeout:   *defTimeout,
		MaxTimeout:       *maxTimeout,
		Metrics:          metrics,
		Logger:           logger,
		SlowQuery:        time.Duration(*slowQueryMS) * time.Millisecond,
	}
	if rep != nil {
		hcfg.Promote = rep.Promote
	}
	handler := server.NewHandler(srv, hcfg)
	hs := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Bounded timeouts so a stalled client cannot wedge a serving
		// goroutine indefinitely; body size is capped in the handler.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// pprof on its own listener with an explicit mux: the profiling
	// surface never rides the API address, and importing net/http/pprof
	// does not silently instrument http.DefaultServeMux for the API.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	logger.Info("serving", "mode", mode.String(), "shards", srv.Shards(), "addr", *addr)

	// Graceful shutdown: SIGINT/SIGTERM stops the listener, drains
	// in-flight requests for up to -drain, then stops the background
	// workers and (srv.Close → shard Close → wal Close) fsyncs and
	// closes each shard's log, so a routine restart loses nothing and
	// recovers instantly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	select {
	case err := <-serveErr:
		if rep != nil {
			rep.Stop()
		}
		srv.Close()
		fatal("listener failed", "err", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of re-draining
	logger.Info("shutdown signal received, draining", "window", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("listener", "err", err)
	}
	if rep != nil {
		rep.Stop() // no new applies once the pullers are down
	}
	srv.Close() // stops shard workers, final WAL sync + close
	logger.Info("shutdown complete (WAL synced and closed)")
}
