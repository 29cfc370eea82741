package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/core"
	"skewsim/internal/dist"
	"skewsim/internal/lsf"
	"skewsim/internal/obs"
	"skewsim/internal/segment"
	"skewsim/internal/server"
	"skewsim/internal/verify"
	"skewsim/internal/wal"
)

// The layer ledger replays one query set, one client, at every rung
// from the filter engine out to the gateway, and reports the median
// µs/query of each: what a rung costs over the one below is that
// layer's added cost. Each rung is built from the same corpus and the
// same core.EngineParams the daemon derives, measured after one warm-up
// pass, and released before the next is built. Everything is timed from
// outside, around the layers' existing public functions.

// rungOrder lists the rungs whose difference is a layer's added cost.
var rungOrder = []struct{ layer, rung, below string }{
	{"core", "core.query_us", "lsf.query_us"},
	{"segment", "segment.query_us", "core.query_us"},
	{"server", "server.query_us", "segment.query_us"},
	{"http", "http.query_us", "server.query_us"},
	{"daemon", "daemon.query_us", "http.query_us"},
	{"gateway", "gateway.query_us", "daemon.query_us"},
}

type ledger struct {
	*run
	product *dist.Product // as the daemon estimates it from -data
	params  []lsf.Params
	thr     float64
	measure bitvec.Measure
	ctx     context.Context // carries a deadline, as every daemon search does
}

// rung runs fn over every query twice — a warm-up pass, then a timed
// one — records a span per timed call, and returns the median µs.
func (l *ledger) rung(name string, tr *tracer, fn func(k int, q bitvec.Vector)) float64 {
	med, _ := l.rungTotal(name, tr, fn)
	return med
}

// rungTotal is rung that also returns the timed pass's total µs.
func (l *ledger) rungTotal(name string, tr *tracer, fn func(k int, q bitvec.Vector)) (med, total float64) {
	for k, q := range l.in.queries {
		fn(k, q)
	}
	us := make([]float64, len(l.in.queries))
	for k, q := range l.in.queries {
		t0 := time.Now()
		fn(k, q)
		t1 := time.Now()
		us[k] = float64(t1.Sub(t0)) / float64(time.Microsecond)
		total += us[k]
		tr.add(name, t0, t1, -1, k)
	}
	return median(us), total
}

// ledgerPhase is a traced run's last phase: the ledger and the direct
// write-path calls, added to the per-layer metrics, and the spans
// written out.
func (r *run) ledgerPhase() error {
	r.d.kill() // the ledger wants both cores
	r.d = nil
	l := &ledger{run: r, thr: firstThreshold(), measure: bitvec.BraunBlanquetMeasure}
	var err error
	if l.product, err = dist.EstimateProduct(r.in.corpus, 0); err != nil {
		return err
	}
	l.params, err = core.EngineParams(core.Correlated, l.product, r.w.finalN, daemonAlpha, core.Options{Seed: 1, Repetitions: r.w.reps})
	if err != nil {
		return err
	}
	var cancel context.CancelFunc
	l.ctx, cancel = context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, step := range []func() error{l.lsfRungs, l.coreRung, l.segmentRung, l.serverRungs, l.walCommit, l.processRungs} {
		if err := step(); err != nil {
			return err
		}
		runtime.GC() // the rung just released must not be collected during the next one's timing
	}
	for _, o := range rungOrder {
		l.layer(o.layer+".added_us", r.res.PerLayer[o.rung].Value-r.res.PerLayer[o.below].Value, "us")
	}
	path, err := r.tr.write(r.w.name)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: spans written to", path)
	return nil
}

// lsfRungs times the filter index alone, one lsf.Index per repetition
// as core builds them, and splits a query into its stages by timing
// ever longer prefixes of it: filter generation, + bucket resolution,
// + posting walk, and verification on its own. The stages run each
// consulted repetition to its end; a mode-first query stops inside the
// repetition at its first hit, so there the stages bound lsf.query_us
// from above instead of summing to it.
func (l *ledger) lsfRungs() error {
	t0 := time.Now()
	reps := make([]*lsf.Index, len(l.params))
	engines := make([]*lsf.Engine, len(l.params))
	for r, p := range l.params {
		var err error
		if engines[r], err = lsf.NewEngine(l.w.finalN, p); err != nil {
			return err
		}
		if reps[r], err = lsf.BuildIndex(engines[r], l.in.corpus); err != nil {
			return err
		}
	}
	l.layer("lsf.build_s", time.Since(t0).Seconds(), "s")
	packed := bitvec.NewPackedSet(l.in.corpus)
	for _, ix := range reps {
		ix.UsePacked(packed)
	}

	// consulted[k] is how many repetitions query k's real query touches:
	// all of them in mode best; in mode first, as core does, those up to
	// the first that finds a match. The stage passes below walk the same
	// repetitions, so that their sum is comparable with lsf.query_us.
	consulted := make([]int, len(l.in.queries))
	lsfQuery := func(k int, q bitvec.Vector) {
		consulted[k] = len(reps)
		for r, ix := range reps {
			if l.w.mode != "first" {
				ix.QueryBest(q, l.measure)
			} else if _, _, _, found := ix.Query(q, l.thr, l.measure); found {
				consulted[k] = r + 1
				return
			}
		}
	}
	query := l.rung("lsf.query", l.tr, lsfQuery)

	var fs lsf.FilterSet
	var refs []lsf.PostingRef
	var ids []int32
	filtergen := l.rung("lsf.filtergen", l.tr, func(k int, q bitvec.Vector) {
		for _, e := range engines[:consulted[k]] {
			fs.Reset()
			e.FiltersInto(q, &fs)
		}
	})
	withRefs := l.rung("lsf.filtergen+resolve", l.tr, func(k int, q bitvec.Vector) {
		for _, ix := range reps[:consulted[k]] {
			refs, _, _ = ix.AppendFilterRefs(q, &fs, refs[:0])
		}
	})
	var filters, candidates, distinct int
	withWalk := l.rung("lsf.filtergen+resolve+walk", l.tr, func(k int, q bitvec.Vector) {
		for _, ix := range reps[:consulted[k]] {
			var st lsf.QueryStats
			ids, st = ix.AppendCandidateIDs(ids[:0], q)
			filters, candidates, distinct = filters+st.Filters, candidates+st.Candidates, distinct+st.Distinct
		}
	})
	// Candidate lists per query, gathered outside the clock, so that the
	// verification pass times Similarity calls and nothing else.
	perQuery := make([][]int32, len(l.in.queries))
	for k, q := range l.in.queries {
		for _, ix := range reps[:consulted[k]] {
			perQuery[k], _ = ix.AppendCandidateIDs(perQuery[k], q)
		}
	}
	var verified, hits int
	verifyUS, verifyTotal := l.rungTotal("verify", l.tr, func(k int, q bitvec.Vector) {
		ses := verify.Acquire(l.measure, q)
		for _, id := range perQuery[k] {
			verified++
			if ses.Similarity(packed, l.in.corpus, id) >= l.thr {
				hits++
			}
		}
		verify.Release(ses)
	})
	l.layer("lsf.filtergen_us", filtergen, "us")
	l.layer("lsf.resolve_us", withRefs-filtergen, "us")
	l.layer("lsf.walk_us", withWalk-withRefs, "us")
	l.layer("lsf.query_us", query, "us")
	l.layer("verify.us_per_query", verifyUS, "us")
	// The counters ran through both passes of their rung, hence the halves.
	l.layer("verify.ns_per_candidate", 1000*ratio(verifyTotal, float64(verified/2)), "ns")
	nq := float64(2 * len(l.in.queries))
	l.layer("lsf.filters_per_query", float64(filters)/nq, "count")
	l.layer("lsf.candidates_per_query", float64(candidates)/nq, "count")
	l.layer("lsf.distinct_per_query", float64(distinct)/nq, "count")
	l.layer("lsf.dup_ratio", ratio(float64(distinct), float64(candidates)), "share")
	l.layer("verify.hit_ratio", ratio(float64(hits), float64(verified)), "share")
	return nil
}

// coreRung times core.Index: the repetitions behind one entry point,
// cross-repetition dedup and the fallback.
func (l *ledger) coreRung() error {
	t0 := time.Now()
	ix, err := core.BuildCorrelated(l.product, l.in.corpus, daemonAlpha, core.Options{Seed: 1, Repetitions: l.w.reps})
	if err != nil {
		return err
	}
	l.layer("core.build_s", time.Since(t0).Seconds(), "s")
	l.layer("core.query_us", l.rung("core.query", l.tr, func(_ int, q bitvec.Vector) {
		if l.w.mode == "first" {
			ix.Query(q)
		} else {
			ix.QueryBest(q)
		}
	}), "us")
	return nil
}

func (l *ledger) segmentConfig() segment.Config {
	return segment.Config{Params: l.params, N: l.w.finalN, MemtableSize: l.w.memtable, MaxSegments: maxSegments}
}

func corpusIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// segmentRung times one SegmentedIndex holding the whole corpus:
// memtable plus frozen segments, bloom screens, the read lock.
func (l *ledger) segmentRung() error {
	s, err := segment.New(l.segmentConfig())
	if err != nil {
		return err
	}
	// WaitIdle before Close: Close does not join the worker, and a freeze
	// that lands after it would race whatever runs next.
	defer func() { s.WaitIdle(); s.Close() }()
	t0 := time.Now()
	if err := s.InsertBatch(corpusIDs(len(l.in.corpus)), l.in.corpus); err != nil {
		return err
	}
	l.layer("segment.insert_us", float64(time.Since(t0))/float64(time.Microsecond)/float64(len(l.in.corpus)), "us")
	s.WaitIdle()
	var segs int
	l.layer("segment.query_us", l.rung("segment.query", l.tr, func(_ int, q bitvec.Vector) {
		ses := verify.Acquire(l.measure, q)
		var st segment.QueryStats
		if l.w.mode == "first" {
			_, st, _, _ = s.QueryWithContext(l.ctx, ses, l.thr)
		} else {
			_, st, _, _ = s.QueryBestWithContext(l.ctx, ses)
		}
		verify.Release(ses)
		segs += st.Segments
	}), "us")
	l.layer("segment.segments_per_query", float64(segs)/float64(2*len(l.in.queries)), "count")
	return nil
}

// newServer builds the in-process stack the daemon builds, instruments
// included, over the given shard count, and loads the corpus.
func (l *ledger) newServer(shards int) (*server.Server, *server.Metrics, time.Duration, error) {
	metrics := server.NewMetrics(obs.NewRegistry())
	srv, err := server.New(server.Config{Shards: shards, MaxQueue: -1, Metrics: metrics, Segment: l.segmentConfig()})
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	if _, err := srv.InsertBatch(l.in.corpus); err != nil {
		srv.Close()
		return nil, nil, 0, err
	}
	took := time.Since(t0)
	srv.WaitIdle()
	return srv, metrics, took, nil
}

func (l *ledger) serverQuery(srv *server.Server) func(int, bitvec.Vector) {
	return func(_ int, q bitvec.Vector) {
		if l.w.mode == "first" {
			srv.QueryContext(l.ctx, q, l.thr, l.measure)
		} else {
			srv.QueryBestContext(l.ctx, q, l.measure)
		}
	}
}

// ledgerRequests are the workload's queries as single /v1/search calls
// in its mode: the ledger is per query even where the traffic batches.
func (l *ledger) ledgerRequests() []request {
	single := l.w
	single.batch = 0
	return searchRequests(single, l.in.queries)
}

// serverRungs times server.Server — admission gate, fan-out, merge —
// over one shard and over the workload's shard count, then the HTTP
// handler into a recorder and over a loopback connection.
func (l *ledger) serverRungs() error {
	one, _, _, err := l.newServer(1)
	if err != nil {
		return err
	}
	l.layer("server.query_us.shards1", l.rung("server.query.shards1", l.tr, l.serverQuery(one)), "us")
	one.WaitIdle()
	one.Close()
	runtime.GC()

	srv, metrics, loadTook, err := l.newServer(l.w.shards)
	if err != nil {
		return err
	}
	defer func() { srv.WaitIdle(); srv.Close() }()
	l.layer("server.insert_batch_us", float64(loadTook)/float64(time.Microsecond)/float64(len(l.in.corpus)), "us")
	l.layer("server.query_us", l.rung("server.query", l.tr, l.serverQuery(srv)), "us")

	handler := server.NewHandler(srv, server.HandlerConfig{
		DefaultThreshold: l.thr, MaxTimeout: 30 * time.Second, Metrics: metrics,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	reqs := l.ledgerRequests()
	var reqBytes, respBytes int
	l.layer("http.handler_us", l.rung("http.handler", l.tr, func(k int, _ bitvec.Vector) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, reqs[k].path, bytes.NewReader(reqs[k].body)))
		reqBytes, respBytes = reqBytes+len(reqs[k].body), respBytes+rec.Body.Len()
	}), "us")
	l.layer("http.req_bytes", float64(reqBytes)/float64(2*len(reqs)), "B")
	l.layer("http.resp_bytes", float64(respBytes)/float64(2*len(reqs)), "B")

	ts := httptest.NewServer(handler)
	defer ts.Close()
	l.layer("http.query_us", l.httpRung("http.query", l.tr, ts.URL, reqs), "us")
	return nil
}

// httpRung is rung over a real connection.
func (l *ledger) httpRung(name string, tr *tracer, base string, reqs []request) float64 {
	c := newConn()
	defer c.CloseIdleConnections()
	return l.rung(name, tr, func(k int, _ bitvec.Vector) { do(c, base, reqs[k]) })
}

// walRounds group commits of walBatch records each make wal.commit_us.
const walRounds, walBatch = 40, 50

// walCommit times the log's durable write alone: 50 records appended
// and fsynced, as one group commit of the insert path does.
func (l *ledger) walCommit() error {
	log, err := wal.Open(filepath.Join(l.dir, "wal-direct"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer log.Close()
	us := make([]float64, walRounds)
	for i := range us {
		recs := make([]wal.Record, walBatch)
		for j := range recs {
			id := i*walBatch + j
			recs[j] = wal.Record{Op: wal.OpInsert, ID: int64(id), Bits: l.in.writes[id%len(l.in.writes)].Bits()}
		}
		t0 := time.Now()
		lsn, err := log.AppendBatch(recs)
		if err == nil {
			err = log.Commit(lsn)
		}
		if err != nil {
			return err
		}
		t1 := time.Now()
		us[i] = float64(t1.Sub(t0)) / float64(time.Microsecond)
		l.tr.add("wal.commit", t0, t1, -1, i)
	}
	l.layer("wal.commit_us", median(us), "us")
	return nil
}

// processRungs times the real binaries: skewsimd as the workload
// configures it, then skewgate in front of it. The daemon rung runs
// once more without span recording; the difference is what tracing
// costs.
func (l *ledger) processRungs() error {
	l.dirs = daemonDirs{wal: filepath.Join(l.dir, "wal-ledger"), storage: filepath.Join(l.dir, "seg-ledger")}
	d, _, err := l.startDaemon()
	if err != nil {
		return err
	}
	defer d.kill()
	reqs := l.ledgerRequests()
	untraced := l.httpRung("daemon.query", nil, d.base, reqs)
	traced := l.httpRung("daemon.query", l.tr, d.base, reqs)
	l.layer("daemon.query_us", traced, "us")
	l.layer("trace.overhead_pct", 100*(traced-untraced)/untraced, "%")

	g, err := startGateway(l.binDir, d.base)
	if err != nil {
		return err
	}
	defer g.kill()
	l.layer("gateway.query_us", l.httpRung("gateway.query", l.tr, g.base, reqs), "us")
	return nil
}

// writeLedgerMD regenerates LEDGER.md from a traced record of all four
// workloads: per workload, each rung's median, what it adds over the
// rung below, and its share of a daemon query.
func writeLedgerMD(rec *record) error {
	var b strings.Builder
	b.WriteString("# Layer ledger\n\n")
	b.WriteString("Generated by `go run ./bench -trace 1` (all four workloads); do not edit.\n")
	b.WriteString("Median µs per query of one query set, one client, timed at each rung from\n")
	b.WriteString("outside; *added* is the rung minus the rung below, *share* is added ÷\n")
	b.WriteString("`daemon.query_us`. Sandbox numbers: loopback network, page-cache disk.\n\n")
	fmt.Fprintf(&b, "Commit %s, %s, kernel %s, nproc %d, seed %d.\n", rec.Commit, rec.GoVersion, rec.Kernel, rec.NProc, rec.Runs[0].Seed)
	for _, res := range rec.Runs {
		pl := func(name string) float64 { return res.PerLayer[name].Value }
		daemon := pl("daemon.query_us")
		fmt.Fprintf(&b, "\n## %s\n\n| rung | median µs | added µs | share of daemon |\n|---|---:|---:|---:|\n", res.Workload)
		fmt.Fprintf(&b, "| lsf.query_us | %.1f | %.1f | %.1f%% |\n", pl("lsf.query_us"), pl("lsf.query_us"), 100*pl("lsf.query_us")/daemon)
		for _, r := range rungOrder {
			fmt.Fprintf(&b, "| %s | %.1f | %.1f | %.1f%% |\n", r.rung, pl(r.rung), pl(r.layer+".added_us"), 100*pl(r.layer+".added_us")/daemon)
		}
		fmt.Fprintf(&b, "\nInside `lsf.query_us`: filter generation %.1f, bucket resolution %.1f, posting walk %.1f, verification %.1f µs\n",
			pl("lsf.filtergen_us"), pl("lsf.resolve_us"), pl("lsf.walk_us"), pl("verify.us_per_query"))
		fmt.Fprintf(&b, "(%s filters, %s candidates, %s distinct per query). Off the ladder: `server.query_us.shards1` %.1f, `http.handler_us` %.1f.\n",
			strconv.FormatFloat(pl("lsf.filters_per_query"), 'f', 1, 64), strconv.FormatFloat(pl("lsf.candidates_per_query"), 'f', 1, 64),
			strconv.FormatFloat(pl("lsf.distinct_per_query"), 'f', 1, 64), pl("server.query_us.shards1"), pl("http.handler_us"))
	}
	return os.WriteFile(filepath.Join("bench", "LEDGER.md"), []byte(b.String()), 0o644)
}
