// Package replica implements the follower side of WAL log shipping: a
// read-only server that continuously pulls per-shard record frames
// from a primary's replication feed (GET /v1/replica/wal), applies
// them through the server's idempotent reconciliation path, and
// persists its applied cursors so a restart resumes where it left off.
// A follower too far behind the primary's checkpoint fence (the feed
// answers 410 Gone) bootstraps from the primary's streamed snapshot
// (GET /v1/replica/snapshot) instead.
//
// Cursor discipline: a cursor is written to disk only after the
// records at or below it are applied (and journaled to the follower's
// own WAL), so it may under-report progress — a crash between apply
// and persist re-pulls records the apply path skips idempotently — but
// never over-report, which would silently lose records.
package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"skewsim/internal/dataio"
	"skewsim/internal/server"
	"skewsim/internal/wal"
)

// errGone marks a feed cursor the primary has checkpoint-truncated.
var errGone = errors.New("replica: feed position compacted away (410)")

// Config wires a follower.
type Config struct {
	// Primary is the primary's base URL, e.g. "http://10.0.0.1:8080".
	Primary string
	// Server configures the follower's own server. WALDir should be set
	// so the follower is durable in its own right; the shard count must
	// match the primary's (validated against the feed's header).
	Server server.Config
	// StateDir holds the cursor file. Defaults to Server.WALDir.
	StateDir string
	// Client issues the feed and snapshot requests. Defaults to a
	// plain client; per-request deadlines come from FetchTimeout.
	Client *http.Client
	// Interval is the poll delay while caught up. Default 200ms.
	Interval time.Duration
	// FetchTimeout bounds one feed request. Default 10s.
	FetchTimeout time.Duration
	// Logger receives replication progress and errors. Nil uses
	// slog.Default.
	Logger *slog.Logger
	// Metrics, when non-nil, counts fetches/applies/bootstraps and
	// exposes the replication lag gauges.
	Metrics *Metrics
	// OnFatal is invoked (once) when replication cannot continue: the
	// primary truncated past our cursor mid-run (a restart will
	// re-bootstrap), or the shard counts disagree. The daemon exits
	// from it; nil just logs.
	OnFatal func(error)
}

// cursorFile is the JSON state persisted under StateDir; bootSnapFile
// is the bootstrap snapshot kept on disk so a restarted follower can
// rebuild the pre-bootstrap base (its local WAL only journals records
// applied from the feed AFTER the bootstrap cut).
const (
	cursorFile   = "replica-cursors.json"
	bootSnapFile = "replica-boot.snap"
)

type cursorState struct {
	Primary string   `json:"primary"`
	Cursors []uint64 `json:"cursors"`
}

// Replicator pulls one primary's shards into a local follower server.
type Replicator struct {
	cfg     Config
	srv     *server.Server
	client  *http.Client
	logger  *slog.Logger
	metrics *Metrics

	mu         sync.Mutex
	cursors    []uint64    // applied primary LSN per shard
	lastSeen   []uint64    // primary head per shard, from feed headers
	caughtUp   []bool      // shard saw 204 more recently than new frames
	lastCaught []time.Time // when the shard was last caught up
	fatalOnce  sync.Once
	persistMu  sync.Mutex // serializes cursor-file writes across pullers

	stopOnce sync.Once
	stop     chan struct{}
	done     sync.WaitGroup
}

// Open builds the follower: a locally recovered server when a cursor
// file from an earlier run exists, otherwise a fresh bootstrap from
// the primary's snapshot stream (retried a few times — a torn stream
// leaves nothing behind). The returned server is read-only; call
// rep.Start to begin catch-up and rep.Promote to take over as primary.
// The caller owns closing the server (after stopping the replicator).
func Open(cfg Config) (*server.Server, *Replicator, error) {
	if cfg.Primary == "" {
		return nil, nil, errors.New("replica: Config.Primary required")
	}
	if cfg.StateDir == "" {
		cfg.StateDir = cfg.Server.WALDir
	}
	if cfg.StateDir == "" {
		return nil, nil, errors.New("replica: Config.StateDir (or Server.WALDir) required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 10 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}

	var srv *server.Server
	var cursors []uint64
	state, err := loadCursors(filepath.Join(cfg.StateDir, cursorFile))
	switch {
	case err == nil:
		// Warm start: the persisted bootstrap snapshot rebuilds the base
		// the local WAL predates, then local WAL recovery reconciles the
		// feed records journaled since (snapshot ids present win, deletes
		// re-apply — the standard idempotent path). The cursor file, not
		// the snapshot header, carries the resume position: it is at
		// least as new.
		snapPath := filepath.Join(cfg.StateDir, bootSnapFile)
		if f, ferr := os.Open(snapPath); ferr == nil {
			srv, _, err = server.ReadSnapshot(f, cfg.Server)
			f.Close()
			if err != nil {
				return nil, nil, fmt.Errorf("replica: restoring bootstrap snapshot: %w", err)
			}
		} else {
			srv, err = server.New(cfg.Server)
			if err != nil {
				return nil, nil, fmt.Errorf("replica: recovering local state: %w", err)
			}
		}
		cursors = state.Cursors
		if len(cursors) != srv.Shards() {
			srv.Close()
			return nil, nil, fmt.Errorf("replica: cursor file has %d shards, server %d", len(cursors), srv.Shards())
		}
	case errors.Is(err, os.ErrNotExist):
		srv, cursors, err = bootstrap(cfg)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("replica: reading cursor file: %w", err)
	}

	srv.SetReadOnly(true)
	r := &Replicator{
		cfg:        cfg,
		srv:        srv,
		client:     cfg.Client,
		logger:     cfg.Logger,
		metrics:    cfg.Metrics,
		cursors:    cursors,
		lastSeen:   append([]uint64(nil), cursors...),
		caughtUp:   make([]bool, len(cursors)),
		lastCaught: make([]time.Time, len(cursors)),
		stop:       make(chan struct{}),
	}
	now := time.Now()
	for i := range r.lastCaught {
		r.lastCaught[i] = now
	}
	if r.metrics != nil {
		r.metrics.registerLagGauges(r)
	}
	return srv, r, nil
}

// bootstrap wipes any partial local state and rebuilds the follower
// from the primary's snapshot stream. Up to three attempts: a
// torn stream (primary fault, network cut) removes everything it wrote
// before the retry, so a half-applied bootstrap can never be mistaken
// for a complete one.
func bootstrap(cfg Config) (*server.Server, []uint64, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 500 * time.Millisecond)
		}
		srv, cursors, err := bootstrapOnce(cfg)
		if err == nil {
			return srv, cursors, nil
		}
		lastErr = err
		cfg.Logger.Warn("replica bootstrap attempt failed", "attempt", attempt+1, "err", err)
	}
	return nil, nil, fmt.Errorf("replica: bootstrap failed: %w", lastErr)
}

func bootstrapOnce(cfg Config) (*server.Server, []uint64, error) {
	// Clean slate: a partial earlier bootstrap (torn snapshot, crash)
	// must leave nothing a reconciliation could mistake for real state.
	if cfg.Server.WALDir != "" {
		if err := os.RemoveAll(cfg.Server.WALDir); err != nil {
			return nil, nil, fmt.Errorf("replica: clearing wal dir: %w", err)
		}
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, nil, err
	}
	if cfg.Server.WALDir != "" {
		if err := os.MkdirAll(cfg.Server.WALDir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	resp, err := cfg.Client.Get(cfg.Primary + "/v1/replica/snapshot")
	if err != nil {
		return nil, nil, fmt.Errorf("replica: snapshot request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, nil, fmt.Errorf("replica: snapshot request: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	// Spool the stream to disk first: restarts rebuild the bootstrap
	// base from this file (the local WAL only journals records applied
	// after the cut), and a torn download dies here, before anything is
	// restored.
	snapPath := filepath.Join(cfg.StateDir, bootSnapFile)
	tmp := snapPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: spooling snapshot: %w", err)
	}
	_, err = io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return nil, nil, fmt.Errorf("replica: spooling snapshot: %w", err)
	}
	rf, err := os.Open(tmp)
	if err != nil {
		return nil, nil, err
	}
	srv, cursors, err := server.ReadSnapshot(rf, cfg.Server)
	rf.Close()
	if err != nil {
		os.Remove(tmp)
		return nil, nil, fmt.Errorf("replica: restoring snapshot: %w", err)
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		srv.Close()
		return nil, nil, err
	}
	if err := saveCursors(cfg.StateDir, cursorState{Primary: cfg.Primary, Cursors: cursors}); err != nil {
		srv.Close()
		return nil, nil, err
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Bootstraps.Inc()
	}
	cfg.Logger.Info("replica bootstrapped from primary snapshot",
		"primary", cfg.Primary, "shards", len(cursors))
	return srv, cursors, nil
}

func loadCursors(path string) (cursorState, error) {
	var st cursorState
	raw, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("parsing %s: %w", path, err)
	}
	return st, nil
}

// saveCursors writes the cursor file atomically (temp + rename): a
// crash mid-write leaves the previous cursors, which only re-pull.
func saveCursors(dir string, st cursorState) error {
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, cursorFile+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("replica: writing cursor file: %w", err)
	}
	return os.Rename(tmp, filepath.Join(dir, cursorFile))
}

// Start launches one puller goroutine per shard.
func (r *Replicator) Start() {
	for shard := range r.cursors {
		r.done.Add(1)
		go r.pullLoop(shard)
	}
}

// Stop halts every puller and waits for them. Idempotent.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.done.Wait()
}

// Promote turns the follower into a primary: stop replicating, re-seed
// the id counter past everything replicated applies produced, and
// accept writes. The caller (skewsimd wires this to
// POST /v1/admin/promote) keeps serving on the same listener.
func (r *Replicator) Promote() error {
	r.Stop()
	r.srv.ReseedNextID()
	r.srv.SetReadOnly(false)
	r.logger.Info("promoted to primary", "was_following", r.cfg.Primary)
	return nil
}

// Cursors returns a copy of the applied primary LSN per shard.
func (r *Replicator) Cursors() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.cursors...)
}

// lagRecords sums, over shards, how far the cursor trails the newest
// primary LSN the feed has reported.
func (r *Replicator) lagRecords() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lag uint64
	for i, cur := range r.cursors {
		if r.lastSeen[i] > cur {
			lag += r.lastSeen[i] - cur
		}
	}
	return lag
}

// lagSeconds is 0 while every shard is caught up, else the age of the
// stalest shard's last caught-up moment.
func (r *Replicator) lagSeconds() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var worst float64
	for i := range r.cursors {
		if r.caughtUp[i] {
			continue
		}
		if age := time.Since(r.lastCaught[i]).Seconds(); age > worst {
			worst = age
		}
	}
	return worst
}

func (r *Replicator) fatal(err error) {
	r.fatalOnce.Do(func() {
		r.logger.Error("replication cannot continue", "err", err)
		if r.cfg.OnFatal != nil {
			r.cfg.OnFatal(err)
		}
	})
}

// pullLoop drains shard's feed until stopped: pull again immediately
// while frames arrive, poll at the configured interval once caught up
// or after a transient error, bail out through fatal() on a 410 (the
// primary truncated past us — a restart re-bootstraps).
func (r *Replicator) pullLoop(shard int) {
	defer r.done.Done()
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		applied, err := r.pullOnce(shard)
		switch {
		case errors.Is(err, errGone):
			// The primary checkpoint-truncated past our cursor; only a
			// fresh bootstrap helps. Drop the cursor file so the next
			// start (the daemon exits via OnFatal) takes that path.
			if rmErr := os.Remove(filepath.Join(r.cfg.StateDir, cursorFile)); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
				r.logger.Warn("removing stale cursor file", "err", rmErr)
			}
			r.fatal(fmt.Errorf("shard %d: %w", shard, err))
			return
		case err != nil:
			if r.metrics != nil {
				r.metrics.FetchErrors.Inc()
			}
			r.logger.Warn("replica fetch failed", "shard", shard, "err", err)
		case applied > 0:
			continue // backlog: keep pulling without delay
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.cfg.Interval):
		}
	}
}

// pullOnce issues one feed request for shard and applies its records.
// Returns how many records were applied; errGone means the position is
// compacted away.
func (r *Replicator) pullOnce(shard int) (int, error) {
	r.mu.Lock()
	cursor := r.cursors[shard]
	r.mu.Unlock()

	// A 204 proves the shard caught up as of some moment after the
	// request left, not as of its arrival: stamp the send time, so a
	// slow response never reads fresher than it is.
	sent := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.FetchTimeout)
	defer cancel()
	url := fmt.Sprintf("%s/v1/replica/wal?shard=%d&from_lsn=%d", r.cfg.Primary, shard, cursor+1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()

	if sc := resp.Header.Get("X-Skewsim-Shard-Count"); sc != "" {
		if n, err := strconv.Atoi(sc); err == nil && n != r.srv.Shards() {
			err := fmt.Errorf("replica: primary has %d shards, follower %d — placement would diverge", n, r.srv.Shards())
			r.fatal(err)
			return 0, err
		}
	}
	switch resp.StatusCode {
	case http.StatusNoContent:
		r.mu.Lock()
		r.lastSeen[shard] = cursor
		r.caughtUp[shard] = true
		r.lastCaught[shard] = sent
		r.mu.Unlock()
		if r.metrics != nil {
			r.metrics.Fetches.Inc()
		}
		return 0, nil
	case http.StatusGone:
		return 0, errGone
	case http.StatusOK:
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("feed status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}

	first, err := strconv.ParseUint(resp.Header.Get("X-Skewsim-First-Lsn"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad X-Skewsim-First-Lsn: %w", err)
	}
	last, err := strconv.ParseUint(resp.Header.Get("X-Skewsim-Last-Lsn"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad X-Skewsim-Last-Lsn: %w", err)
	}
	if first > cursor+1 {
		err := fmt.Errorf("replica: shard %d feed gap: cursor %d, stream starts at %d", shard, cursor, first)
		r.fatal(err)
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("reading feed body: %w", err)
	}
	recs, err := decodeFrames(body)
	if err != nil {
		return 0, err
	}
	if got := first + uint64(len(recs)) - 1; got != last {
		return 0, fmt.Errorf("feed body ends at lsn %d, header says %d", got, last)
	}
	if err := r.srv.ApplyReplicated(shard, recs); err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.cursors[shard] = last
	if last > r.lastSeen[shard] {
		r.lastSeen[shard] = last
	}
	r.caughtUp[shard] = false
	cursors := append([]uint64(nil), r.cursors...)
	r.mu.Unlock()
	// Persist after apply: the on-disk cursor must never lead the
	// applied state. A failed write only re-pulls after a restart.
	// Serialized across pullers — they share one temp file.
	r.persistMu.Lock()
	err = saveCursors(r.cfg.StateDir, cursorState{Primary: r.cfg.Primary, Cursors: cursors})
	r.persistMu.Unlock()
	if err != nil {
		r.logger.Warn("replica cursor persist failed", "err", err)
	}
	if r.metrics != nil {
		r.metrics.Fetches.Inc()
		r.metrics.RecordsApplied.Add(int64(len(recs)))
	}
	return len(recs), nil
}

// decodeFrames parses a feed body (CRC frames of record payloads) into
// records.
func decodeFrames(body []byte) ([]wal.Record, error) {
	var recs []wal.Record
	fr := dataio.NewFrameReader(bytes.NewReader(body))
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("replica: feed frame: %w", err)
		}
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			return nil, fmt.Errorf("replica: feed record: %w", err)
		}
		recs = append(recs, rec)
	}
}
