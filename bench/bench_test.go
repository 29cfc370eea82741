package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// near asserts a numeric result against a hand-computed constant to a
// stated tolerance.
func near(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol || math.IsNaN(got) {
		t.Errorf("%s = %v, want %v ± %v", what, got, want, tol)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100) // 1..100, shuffled by stride
	for i := range xs {
		xs[i] = float64((i*37)%100 + 1)
	}
	// Linear interpolation at position q·(n−1): 0.5·99 = 49.5 → 50.5.
	near(t, "median(1..100)", median(xs), 50.5, 1e-12)
	near(t, "p99(1..100)", percentile(xs, 0.99), 99.01, 1e-9)
	near(t, "p95(1..100)", percentile(xs, 0.95), 95.05, 1e-9)
	near(t, "p0", percentile(xs, 0), 1, 0)
	near(t, "p100", percentile(xs, 1), 100, 0)
}

func TestWindowedTail(t *testing.T) {
	// Too short for five windows of 1000: the plain p99.
	short := make([]float64, 1000)
	for i := range short {
		short[i] = float64(i + 1)
	}
	near(t, "windowedTail(short)", windowedTail(short, 5), 990.01, 1e-9)

	// Long phase: five windows of 1000, each 1..1000 scaled by the
	// window's number, so the window p99s are 990.01 × {1,2,3,4,5} and
	// their median is the third.
	long := make([]float64, 0, 5000)
	for w := 1; w <= 5; w++ {
		for i := 1; i <= 1000; i++ {
			long = append(long, float64(w*i))
		}
	}
	near(t, "windowedTail(long)", windowedTail(long, 5), 3*990.01, 1e-9)

	// A stall inside one window lifts that window's p99 only: 200 huge
	// samples in the last window (already the highest) leave the median
	// of the five where it was, while the pooled p99 lands in the stall.
	stalled := append([]float64(nil), long...)
	for i := 4000; i < 4200; i++ {
		stalled[i] = 1e6
	}
	near(t, "windowedTail(stalled)", windowedTail(stalled, 5), 3*990.01, 1e-9)
	near(t, "p99(stalled)", percentile(stalled, 0.99), 1e6, 0)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	near(t, "q1", q1, 2.75, 1e-12)
	near(t, "q2", q2, 5.5, 1e-12)
	near(t, "q3", q3, 8.25, 1e-12)
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	near(t, "q1", q1, 1.25, 1e-12)
	near(t, "q2", q2, 3.5, 1e-12)
	near(t, "q3", q3, 5.75, 1e-12)
	near(t, "spread", spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), 1, 1e-12)
}

// TestOpenLoopChargesStall is the no-coordinated-omission check: a
// server that stalls once for 200 ms must cost every request that was
// due during the stall, not only the one request that hit it.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stallAt  = 20 // the request that stalls
		stall    = 200 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()

	samples := openLoop(srv.URL, interval, 600*time.Millisecond, 1, func(i int) (request, bool) {
		return request{path: "/", body: []byte("{}")}, true
	}, nil)
	if len(samples) != 60 {
		t.Fatalf("open loop sent %d requests, scheduled 60", len(samples))
	}
	sortSamples(samples)
	// Request stallAt+k was due k×10 ms into the stall and cannot be
	// answered before the stall ends: it waited at least 200 − 10k ms.
	// Only the lower bound is asserted — a loaded test machine makes
	// everything later, never earlier.
	const tol = 5 * time.Millisecond
	for k := 0; k < 15; k++ {
		want := stall - time.Duration(k)*interval
		if got := samples[stallAt+k].latency(); got < want-tol {
			t.Errorf("request due %d ms into the stall: latency %v, want at least %v", 10*k, got, want-tol)
		}
	}
	// A closed loop would have recorded one slow request. Here at least
	// 15 requests — 150 ms of schedule — carry the stall.
	slow := 0
	for _, s := range samples {
		if s.latency() > 50*time.Millisecond {
			slow++
		}
	}
	if slow < 15 {
		t.Errorf("%d requests over 50 ms, want at least 15: the stall was not charged to the requests due during it", slow)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "search_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "search_qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 100, 125, 75, 100, 120, 85, 100}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"same runs", lower, steady, steady, verdictOK},
		{"5% slower, bound 10%", lower, steady, scale(steady, 1.05), verdictOK},
		{"15% slower, bound 10%", lower, steady, scale(steady, 1.15), verdictRegressed},
		{"15% faster", lower, steady, scale(steady, 0.85), verdictOK},
		{"throughput down 15%", higher, steady, scale(steady, 0.85), verdictRegressed},
		{"throughput up 15%", higher, steady, scale(steady, 1.15), verdictOK},
		{"spread wider than the bound", lower, noisy, noisy, verdictUnresolved},
		{"noisy but clearly regressed", lower, noisy, scale(noisy, 1.5), verdictRegressed},
		{"setup_s is exempt from the spread rule", metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}, noisy, noisy, verdictOK},
		{"single runs", lower, []float64{100}, []float64{104}, verdictOK},
	}
	for _, c := range cases {
		if got, _, _, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	mk := func(p50 ...float64) *record {
		rec := &record{}
		for i, v := range p50 {
			rec.Runs = append(rec.Runs, &result{Workload: "sparse-first", Seed: uint64(i),
				EndToEnd: map[string]metric{"search_p50_ms": {v, "ms"}}})
		}
		return rec
	}
	a := mk(0.60, 0.61, 0.59, 0.60)
	if code := compareRecords(io.Discard, a, mk(0.61, 0.60, 0.60, 0.62)); code != 0 {
		t.Errorf("equal run sets: exit %d, want 0", code)
	}
	if code := compareRecords(io.Discard, a, mk(0.80, 0.81, 0.79, 0.80)); code != 1 {
		t.Errorf("regressed run set: exit %d, want 1", code)
	}
	invalid := mk(0.80, 0.81)
	for _, r := range invalid.Runs {
		r.Invalid = "generator fell behind"
	}
	invalid.Runs = append(invalid.Runs, mk(0.60).Runs...)
	if code := compareRecords(io.Discard, a, invalid); code != 0 {
		t.Errorf("invalid runs must be left out of the comparison: exit %d, want 0", code)
	}
}

// TestBenchmarkJSONInSync keeps the checked-in BENCHMARK.json equal to
// what the metric and workload tables generate.
func TestBenchmarkJSONInSync(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go and workloads.go; regenerate it with `go run ./bench -benchmark-json > BENCHMARK.json`")
	}
}

// TestGenerateIsDeterministic: the same seed gives the same inputs.
func TestGenerateIsDeterministic(t *testing.T) {
	w, err := workloadByName("churn-durable")
	if err != nil {
		t.Fatal(err)
	}
	w.n, w.queries = 300, 50 // the generator is the same at any size
	a, err := generate(w, 7, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(w, 7, 100)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(w, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y *inputs) bool {
		for _, pair := range [][2]int{{len(x.corpus), len(y.corpus)}, {len(x.queries), len(y.queries)}, {len(x.writes), len(y.writes)}} {
			if pair[0] != pair[1] {
				return false
			}
		}
		for i := range x.corpus {
			if !x.corpus[i].Equal(y.corpus[i]) {
				return false
			}
		}
		for i := range x.queries {
			if !x.queries[i].Equal(y.queries[i]) || x.targets[i] != y.targets[i] {
				return false
			}
		}
		for i := range x.writes {
			if !x.writes[i].Equal(y.writes[i]) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("seed 7 generated two different input sets")
	}
	if same(a, c) {
		t.Error("seeds 7 and 8 generated the same input set")
	}
}

// TestCheckerCatchesWrongSimilarity: the checker is the benchmark's own
// correctness gate, so it gets a negative test.
func TestCheckerCatchesWrongSimilarity(t *testing.T) {
	w, _ := workloadByName("dense-best")
	w.n, w.queries = 50, 10
	in, err := generate(w, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := newChecker(w, in)
	k := 3
	target := int64(in.targets[k])
	if err := c.checkAnswer(k, "best", answer{Found: true, ID: target, Similarity: c.planted[k]}); err != nil {
		t.Errorf("true answer rejected: %v", err)
	}
	if err := c.checkAnswer(k, "best", answer{Found: true, ID: target, Similarity: c.planted[k] + 0.01}); err == nil {
		t.Error("similarity off by 0.01 accepted")
	}
	if err := c.checkAnswer(k, "best", answer{Found: true, ID: 1 << 40, Similarity: 0.5}); err == nil {
		t.Error("unknown id accepted")
	}
	if err := c.checkAnswer(k, "first", answer{Found: true, ID: target, Similarity: c.planted[k]}); (err != nil) != (c.planted[k] < c.threshold) {
		t.Errorf("mode first with similarity %v against threshold %v: %v", c.planted[k], c.threshold, err)
	}
	c.countRecall(k, "best", answer{Found: true, ID: target, Similarity: c.planted[k]})
	c.countRecall(k, "best", answer{Found: false})
	near(t, "recall", c.recall(), 0.5, 0)
}
