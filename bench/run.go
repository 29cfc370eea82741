package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"skewsim/internal/dataio"
)

// Shares of -seconds each timed phase gets. The open loop carries the
// latency percentiles, so it gets the most.
const (
	openShare    = 0.60
	closedShare  = 0.25
	gatewayShare = 0.15
)

const (
	setups        = 3   // set-ups per run; setup_s is their median
	rounds        = 4   // rounds the timed search phases are cut into
	restarts      = 3   // SIGKILL → ready cycles on a storage workload; recover_s is their median
	insertSets    = 8   // sets per /v1/insert in the open-loop write stream
	deleteIDs     = 16  // ids per /v1/delete in the open-loop write stream
	deleteEvery   = 26  // every 26th write op is a delete: 25 inserts + 1 delete per second
	ingestSets    = 64  // sets per /v1/insert in the ingest burst
	parityQueries = 200 // queries of the batch-equals-single and restart-equality checks
	readyTimeout  = 90 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"` // why Correct is false
	Invalid   string            `json:"invalid,omitempty"`  // set when the generator, not the daemon, limited the run
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Samples   map[string]int    `json:"samples"` // sample count behind each percentile
}

// run is the state of one workload run.
type run struct {
	w       workload
	in      *inputs
	seconds float64
	tr      *tracer // nil on an untraced run
	binDir  string
	dir     string // the run's temp dir
	corpus  string // corpus file inside dir
	chk     *checker
	res     *result

	d        *proc
	dirs     daemonDirs
	live     int     // vectors the daemon must report live: corpus + acknowledged inserts − deletes
	acked    []int64 // acknowledged, not yet deleted, inserted ids (oldest first)
	nextSet  int     // next unused vector of in.writes
	searches []request
}

func (r *run) problem(format string, args ...any) {
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

func (r *run) e2e(name string, v float64, unit string)   { r.res.EndToEnd[name] = metric{v, unit} }
func (r *run) layer(name string, v float64, unit string) { r.res.PerLayer[name] = metric{v, unit} }

func (r *run) share(s float64) time.Duration {
	return time.Duration(s * r.seconds * float64(time.Second))
}

// runWorkload performs one complete run: inputs from the seed, the
// set-ups, the timed phases, the correctness checks, (on a storage
// workload) the crash restarts and (with a tracer) the ledger. A non-nil
// error means the run could not be carried out; wrong answers are
// reported in the result instead.
func runWorkload(w workload, seed uint64, seconds float64, tr *tracer, binDir string) (*result, error) {
	// Writes: the ingest burst, and on churn-durable the open-loop stream
	// for the whole timed step.
	writeVectors := w.ingest
	if w.writes {
		writeVectors += insertSets * (int(seconds*float64(time.Second)/float64(writeInterval)) + 1)
	}
	in, err := generate(w, seed, writeVectors)
	if err != nil {
		return nil, err
	}
	tmpRoot := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	// Best effort: the daemon is SIGKILLed first, so nothing writes into
	// the tree while it is removed.
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	r := &run{
		w: w, in: in, seconds: seconds, tr: tr, binDir: binDir, dir: dir,
		corpus: filepath.Join(dir, "corpus.txt"),
		chk:    newChecker(w, in),
		res: &result{Workload: w.name, Seed: seed, Seconds: seconds, Traced: tr != nil,
			EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}, Samples: map[string]int{}},
		live:     w.n,
		searches: searchRequests(w, in.queries),
	}
	if err := dataio.WriteFile(r.corpus, in.corpus); err != nil {
		return nil, err
	}
	defer func() {
		if r.d != nil {
			r.d.kill()
		}
	}()
	type phase struct {
		name string
		run  func() error
	}
	phases := []phase{{"set-up", r.setUp}, {"parity", r.parityCheck}, {"search", r.measure}, {"ingest", r.ingestPhase}, {"restarts", r.restartPhase}}
	if tr != nil {
		phases = append(phases, phase{"ledger", r.ledgerPhase})
	}
	// The phases' wall-clock goes to stderr: the driver gives all runs a
	// fixed total, and only -seconds of each are the timed step.
	took := w.name + ":"
	for _, phase := range phases {
		t0 := time.Now()
		if err := phase.run(); err != nil {
			return nil, fmt.Errorf("%s %s: %w", w.name, phase.name, err)
		}
		took += fmt.Sprintf(" %s %.1fs", phase.name, time.Since(t0).Seconds())
	}
	fmt.Fprintln(os.Stderr, "bench:", took)
	r.res.Attempted, r.res.Failed = r.chk.attempted, r.chk.failed
	if r.chk.failed > 0 {
		r.problem("%d of %d requests failed; first: %s", r.chk.failed, r.chk.attempted, r.chk.firstFail)
	}
	recall := r.chk.recall()
	r.e2e("recall", recall, "share")
	r.res.Samples["recall"] = r.chk.answered
	if recall < w.recallFloor {
		r.problem("recall %.4f below the workload's floor %.2f", recall, w.recallFloor)
	}
	r.res.Correct = len(r.res.Problems) == 0
	return r.res, nil
}

// startDaemon execs skewsimd over r.dirs and waits until it is
// quiescent.
func (r *run) startDaemon() (*proc, counters, error) {
	port, err := freePort()
	if err != nil {
		return nil, nil, err
	}
	p, err := startProc(filepath.Join(r.binDir, "skewsimd"), port, daemonArgs(r.w, port, r.corpus, r.dirs)...)
	if err != nil {
		return nil, nil, err
	}
	c, err := p.waitQuiescent(r.w, readyTimeout)
	if err != nil {
		p.kill()
		return nil, nil, err
	}
	return p, c, nil
}

// setUp brings a daemon from exec to quiescent over fresh directories
// `setups` times and keeps the last one. setup_s is the median: the
// first set-up of a run also pays for a cold page cache.
func (r *run) setUp() error {
	var took, rss []float64
	for i := 0; i < setups; i++ {
		if r.d != nil {
			r.d.kill()
		}
		if r.w.storage() {
			r.dirs = daemonDirs{
				wal:     filepath.Join(r.dir, "wal"+strconv.Itoa(i)),
				storage: filepath.Join(r.dir, "seg"+strconv.Itoa(i)),
			}
		}
		t0 := time.Now()
		d, c, err := r.startDaemon()
		if err != nil {
			return err
		}
		t1 := time.Now()
		r.tr.add("setup", t0, t1, -1, i)
		took = append(took, t1.Sub(t0).Seconds())
		r.d = d
		if live := int(c["skewsim_index_live_vectors"]); live != r.w.n {
			return fmt.Errorf("set-up %d: %d live vectors, the corpus has %d", i, live, r.w.n)
		}
		hwm, err := d.procStatusKB("VmHWM")
		if err != nil {
			return err
		}
		rss = append(rss, float64(hwm)/1024)
	}
	r.e2e("setup_s", median(took), "s")
	r.e2e("rss_peak_mb", median(rss), "MB")
	return nil
}

// parityRequests are the first parityQueries queries in mode best, as
// single searches and as batches of 16.
func (r *run) parityRequests() (single, batched []request) {
	best := r.w
	best.mode, best.batch = "best", 0
	qs := r.in.queries[:parityQueries]
	single = searchRequests(best, qs)
	best.batch = 16
	batched = searchRequests(best, qs)
	return single, batched
}

// parityAnswers asks reqs one at a time on one connection, checks the
// answers, and returns them.
func (r *run) parityAnswers(reqs []request) ([]answer, error) {
	samples, _ := closedLoop(r.d.base, time.Hour, 1, len(reqs), func(i int) request { return reqs[i] })
	var out []answer
	for _, s := range samples {
		r.chk.attempted++
		if s.status != 200 {
			return nil, fmt.Errorf("parity %s: %s", s.r.path, describeStatus(s))
		}
		as, err := s.r.answers(s.body)
		if err != nil {
			return nil, fmt.Errorf("parity %s: %w", s.r.path, err)
		}
		for j, a := range as {
			if err := r.chk.checkAnswer(s.r.first+j, "best", a); err != nil {
				r.chk.fail("parity %s: %v", s.r.path, err)
			}
		}
		out = append(out, as...)
	}
	return out, nil
}

// sameAnswer compares two answers to one query by what they promise:
// found or not, and how similar. Two vectors can tie for best, and which
// of them a traversal meets first is not part of the API, so ids are
// not compared; checkAnswer has already verified each id's similarity.
func sameAnswer(a, b answer) bool {
	return a.Found == b.Found && a.Similarity == b.Similarity
}

// parityCheck: /v1/search/batch must answer exactly what /v1/search
// does. With the pass over the workload's own requests that follows, it
// doubles as the warm-up: pools, page faults on the arenas and the page
// cache of a cold segment are paid before the clock starts.
func (r *run) parityCheck() error {
	single, batched := r.parityRequests()
	a, err := r.parityAnswers(single)
	if err != nil {
		return err
	}
	b, err := r.parityAnswers(batched)
	if err != nil {
		return err
	}
	for k := range b {
		if !sameAnswer(a[k], b[k]) {
			r.problem("query %d: /v1/search answered %+v, /v1/search/batch %+v", k, a[k], b[k])
			break
		}
	}
	warm, _ := closedLoop(r.d.base, time.Hour, 1, len(r.searches), func(i int) request { return r.searches[i] })
	r.chk.searchSamples(warm, false)
	return nil
}

// writeInterval paces the churn write stream: 26 operations a second,
// 200 inserted and 16 deleted vectors.
const writeInterval = time.Second / deleteEvery

// writeOp is the churn write stream's i-th operation: 8-set inserts,
// with every 26th slot a 16-id delete of the oldest acknowledged ids.
func (r *run) writeOp(i int) (request, bool) {
	if i%deleteEvery == deleteEvery-1 {
		if len(r.acked) < deleteIDs {
			return request{}, false
		}
		return request{path: "/v1/delete", count: deleteIDs, body: mustJSON(map[string]any{"ids": r.acked[:deleteIDs]})}, true
	}
	return r.nextInsert(insertSets), true
}

func (r *run) nextInsert(sets int) request {
	req := insertRequest(r.in.writes[r.nextSet:r.nextSet+sets], r.nextSet)
	r.nextSet += sets
	return req
}

// writeDone books one acknowledged write. All writes of a phase travel
// on one connection, so this never runs concurrently with itself.
func (r *run) writeDone(s sample) {
	if s.r.path == "/v1/delete" {
		if r.chk.deleteAck(s) {
			r.acked = r.acked[s.r.count:]
			r.live -= s.r.count
		}
		return
	}
	ids := r.chk.insertAck(s)
	r.acked = append(r.acked, ids...)
	r.live += len(ids)
}

// measure runs the timed search phases in `rounds` rounds of open loop
// at the workload's fixed rate, closed loop, and closed loop through a
// skewgate, and pools each phase's samples over the rounds. A sandbox's
// speed drifts over seconds; rounds spread every metric's samples over
// the whole measurement instead of one slice of it. On churn-durable the
// write stream runs beside all of it on a connection of its own.
func (r *run) measure() error {
	w := r.w
	openDur, closedDur, gatewayDur := r.share(openShare)/rounds, r.share(closedShare)/rounds, r.share(gatewayShare)/rounds
	g, err := startGateway(r.binDir, r.d.base)
	if err != nil {
		return err
	}
	defer g.kill()
	before, err := r.d.counters()
	if err != nil {
		return err
	}

	readConns := maxConns
	var writes []sample
	writesDone := make(chan struct{})
	writeStart := time.Now()
	if w.writes {
		readConns-- // the write stream owns one of the two connections
		go func() {
			defer close(writesDone)
			writes = openLoop(r.d.base, writeInterval, rounds*(openDur+closedDur+gatewayDur), 1, r.writeOp, r.writeDone)
		}()
	} else {
		close(writesDone)
	}

	next := func(i int) request { return r.searches[i%len(r.searches)] }
	var open, closed, gateway []sample
	var lat []float64 // open-loop latencies in the order they were due, round after round
	var closedTook, openSpan time.Duration
	for round, sent := 0, 0; round < rounds; round++ {
		// Each phase resumes the query cycle where the last one stopped.
		from := sent
		start := time.Now()
		o := openLoop(r.d.base, w.every, openDur, readConns, func(i int) (request, bool) { return next(from + i), true }, nil)
		r.tr.addSamples("search.open", start, o)
		lat = append(lat, latenciesMS(o)...)
		sent += len(o)
		var lastSent time.Duration
		for _, s := range o {
			lastSent = max(lastSent, s.sent)
		}
		openSpan += lastSent + w.every

		from, start = sent, time.Now()
		c, took := closedLoop(r.d.base, closedDur, readConns, 0, func(i int) request { return next(from + i) })
		r.tr.addSamples("search.closed", start, c)
		sent += len(c)
		closedTook += took

		from, start = sent, time.Now()
		gw, _ := closedLoop(g.base, gatewayDur, 1, 0, func(i int) request { return next(from + i) })
		r.tr.addSamples("search.gateway", start, gw)
		sent += len(gw)
		open, closed, gateway = append(open, o...), append(closed, c...), append(gateway, gw...)
	}
	<-writesDone
	after, err := r.d.counters()
	if err != nil {
		return err
	}
	r.tr.addSamples("write.open", writeStart, writes)

	// Reads are checked only now: on churn-durable an answer may name an
	// id whose acknowledgement the write stream booked meanwhile.
	r.chk.searchSamples(open, true)
	r.chk.searchSamples(closed, false)
	r.chk.searchSamples(gateway, false)

	r.e2e("search_p50_ms", median(lat), "ms")
	r.layer("search.p95_ms", percentile(lat, 0.95), "ms")
	r.layer("search.p99_ms", windowedTail(lat, rounds), "ms")
	r.res.Samples["search_p50_ms"], r.res.Samples["search.p95_ms"], r.res.Samples["search.p99_ms"] = len(lat), len(lat), len(lat)
	perRequest := max(1, w.batch)
	r.e2e("search_qps", float64(len(closed)*perRequest)/closedTook.Seconds(), "1/s")
	r.res.Samples["search_qps"] = len(closed)
	r.e2e("gateway_search_p50_ms", median(latenciesMS(gateway)), "ms")
	r.res.Samples["gateway_search_p50_ms"] = len(gateway)

	// The generator never drops a request, so falling behind shows as a
	// round's last send happening after its slot.
	offered := float64(time.Second) / float64(w.every)
	achieved := float64(len(open)) / openSpan.Seconds()
	r.layer("loadgen.late_p99_ms", percentile(lateMS(open), 0.99), "ms")
	r.layer("loadgen.achieved_rate", achieved, "1/s")
	if achieved < 0.99*offered {
		// The generator did not keep its schedule: the numbers describe
		// it, not the daemon.
		r.res.Invalid = fmt.Sprintf("open loop achieved %.1f of %.1f req/s", achieved, offered)
	}

	if w.writes {
		var acks []float64
		for _, s := range writes {
			if s.r.path == "/v1/insert" {
				acks = append(acks, float64(s.latency())/float64(time.Millisecond))
			}
		}
		r.layer("churn.insert_ack_p50_ms", median(acks), "ms")
		r.layer("churn.insert_ack_p95_ms", percentile(acks, 0.95), "ms")
		r.res.Samples["churn.insert_ack_p50_ms"], r.res.Samples["churn.insert_ack_p95_ms"] = len(acks), len(acks)
	} else {
		r.layer("churn.insert_ack_p50_ms", 0, "ms")
		r.layer("churn.insert_ack_p95_ms", 0, "ms")
		if !sameBackground(before, after) {
			r.problem("background work ran during a read-only measured phase: %v before, %v after (%v)",
				pick(before, backgroundCounters), pick(after, backgroundCounters), backgroundCounters)
		}
	}
	r.searchLayers(before, after, float64((len(open)+len(closed)+len(gateway))*perRequest))
	return nil
}

func pick(c counters, names []string) []float64 {
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = c[n]
	}
	return out
}

// ingestPhase inserts the workload's fixed number of fresh vectors in
// 64-set requests, one client, closed loop, and waits until the daemon
// has digested them (frozen, compacted, demoted). A fixed count, not a
// fixed time: the index the restarts then recover must not depend on
// how fast this commit ingests.
func (r *run) ingestPhase() error {
	before, err := r.d.counters()
	if err != nil {
		return err
	}
	start := time.Now()
	samples, took := closedLoop(r.d.base, time.Hour, 1, r.w.ingest/ingestSets, func(int) request { return r.nextInsert(ingestSets) })
	for _, s := range samples {
		r.writeDone(s)
	}
	r.tr.addSamples("ingest", start, samples)
	after, err := r.d.waitQuiescent(r.w, readyTimeout)
	if err != nil {
		return err
	}
	digested := time.Now()
	r.tr.add("ingest.digest", start.Add(took), digested, -1, 0)
	// Throughput counts the background work the burst caused: how the
	// freezes interleave with the acknowledgements varies from run to
	// run, the total work does not.
	r.e2e("insert_vps", float64(len(samples)*ingestSets)/digested.Sub(start).Seconds(), "1/s")
	r.layer("ingest.ack_vps", float64(len(samples)*ingestSets)/took.Seconds(), "1/s")
	r.layer("ingest.ack_p50_ms", median(latenciesMS(samples)), "ms")
	r.res.Samples["insert_vps"], r.res.Samples["ingest.ack_p50_ms"] = len(samples), len(samples)
	if live := int(after["skewsim_index_live_vectors"]); live != r.live {
		r.problem("after ingest: %d live vectors, %d acknowledged", live, r.live)
	}
	r.ingestLayers(before, after)
	hwm, err := r.d.procStatusKB("VmHWM")
	if err != nil {
		return err
	}
	r.layer("daemon.rss_end_mb", float64(hwm)/1024, "MB")
	return nil
}

// restartPhase SIGKILLs the daemon and restarts it over the same
// directories `restarts` times. After each, the daemon must report
// exactly the acknowledged live set and answer the parity queries as it
// did before the first kill: fsync=always promised that. An in-RAM
// workload has nothing to restart from and reports zeros.
func (r *run) restartPhase() error {
	if !r.w.storage() {
		r.layer("storage.recover_s", 0, "s")
		r.layer("storage.disk_bytes_per_vector", 0, "B")
		return nil
	}
	single, _ := r.parityRequests()
	want, err := r.parityAnswers(single)
	if err != nil {
		return err
	}
	var took []float64
	for i := 0; i < restarts; i++ {
		r.d.kill()
		t0 := time.Now()
		d, c, err := r.startDaemon()
		if err != nil {
			return err
		}
		r.d = d
		t1 := time.Now()
		r.tr.add("recover", t0, t1, -1, i)
		took = append(took, t1.Sub(t0).Seconds())
		if live := int(c["skewsim_index_live_vectors"]); live != r.live {
			r.problem("restart %d: %d live vectors, %d acknowledged", i, live, r.live)
		}
		got, err := r.parityAnswers(single)
		if err != nil {
			return err
		}
		for k := range want {
			if !sameAnswer(got[k], want[k]) {
				r.problem("restart %d: query %d answered %+v, before the crash %+v", i, k, got[k], want[k])
				break
			}
		}
	}
	r.layer("storage.recover_s", median(took), "s")
	var disk int64
	for _, root := range []string{r.dirs.wal, r.dirs.storage} {
		err := filepath.WalkDir(root, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err == nil {
				disk += info.Size()
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	r.layer("storage.disk_bytes_per_vector", float64(disk)/float64(r.live), "B")
	return nil
}
