package main

import (
	"encoding/json"
)

// runSeconds is BENCHMARK.json's run_seconds and the default -seconds.
const runSeconds = 18

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which the metric may
	// get worse before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the daemon sees, each measured on
// every workload. The bounds are fixed here, before any change is
// measured against them. They are as wide as a bound may be because the
// sandbox is noisy: over ten seeds the interquartile spread of the timed
// metrics reaches 8–17 % of the median on the worst workload, and a
// bound under a few times its own noise only produces "unresolved".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_qps", "1/s", "higher", 0.25},
	{"gateway_search_p50_ms", "ms", "lower", 0.25},
	{"insert_vps", "1/s", "higher", 0.25},
	{"recall", "share", "higher", 0.02},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer are single layers' numbers: what an optimisation of that
// layer should move, and the counters that must not move.
var perLayer = []metricDef{
	// Ledger: median µs per query of the same query set, one client,
	// timed at each rung from the filter engine out to the gateway.
	{Name: "lsf.filtergen_us", Unit: "us", Better: "lower"},
	{Name: "lsf.resolve_us", Unit: "us", Better: "lower"},
	{Name: "lsf.walk_us", Unit: "us", Better: "lower"},
	{Name: "lsf.query_us", Unit: "us", Better: "lower"},
	{Name: "verify.us_per_query", Unit: "us", Better: "lower"},
	{Name: "verify.ns_per_candidate", Unit: "ns", Better: "lower"},
	{Name: "core.query_us", Unit: "us", Better: "lower"},
	{Name: "segment.query_us", Unit: "us", Better: "lower"},
	{Name: "server.query_us.shards1", Unit: "us", Better: "lower"},
	{Name: "server.query_us", Unit: "us", Better: "lower"},
	{Name: "http.handler_us", Unit: "us", Better: "lower"},
	{Name: "http.query_us", Unit: "us", Better: "lower"},
	{Name: "daemon.query_us", Unit: "us", Better: "lower"},
	{Name: "gateway.query_us", Unit: "us", Better: "lower"},
	{Name: "core.added_us", Unit: "us", Better: "lower"},
	{Name: "segment.added_us", Unit: "us", Better: "lower"},
	{Name: "server.added_us", Unit: "us", Better: "lower"},
	{Name: "http.added_us", Unit: "us", Better: "lower"},
	{Name: "daemon.added_us", Unit: "us", Better: "lower"},
	{Name: "gateway.added_us", Unit: "us", Better: "lower"},
	// Counts at the same boundaries; exact per seed.
	{Name: "lsf.filters_per_query", Unit: "count", Better: "lower"},
	{Name: "lsf.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "lsf.distinct_per_query", Unit: "count", Better: "lower"},
	{Name: "lsf.dup_ratio", Unit: "share", Better: "higher"},
	{Name: "verify.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "segment.segments_per_query", Unit: "count", Better: "lower"},
	{Name: "http.req_bytes", Unit: "B", Better: "lower"},
	{Name: "http.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "lsf.build_s", Unit: "s", Better: "lower"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	// Direct calls into the write path.
	{Name: "wal.commit_us", Unit: "us", Better: "lower"},
	{Name: "segment.insert_us", Unit: "us", Better: "lower"},
	{Name: "server.insert_batch_us", Unit: "us", Better: "lower"},
	// The daemon's own counters over the timed search phases.
	{Name: "segment.freezes", Unit: "count", Better: "lower"},
	{Name: "segment.compactions", Unit: "count", Better: "lower"},
	{Name: "segment.freeze_s", Unit: "s", Better: "lower"},
	{Name: "segment.compact_s", Unit: "s", Better: "lower"},
	{Name: "segment.demotions", Unit: "count", Better: "lower"},
	{Name: "segment.promotions", Unit: "count", Better: "lower"},
	{Name: "segment.decode_s", Unit: "s", Better: "lower"},
	{Name: "segment.cold_segments", Unit: "count", Better: "lower"},
	{Name: "segment.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "segment.filters_per_query", Unit: "count", Better: "lower"},
	{Name: "segment.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "segment.bloom_skip_ratio", Unit: "share", Better: "higher"},
	{Name: "server.admission_rejected", Unit: "count", Better: "lower"},
	{Name: "server.fanout_partial", Unit: "count", Better: "lower"},
	{Name: "server.fanout_abandoned", Unit: "count", Better: "lower"},
	{Name: "wal.appends", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.fsync_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "wal.records_per_commit", Unit: "count", Better: "higher"},
	// … and over the ingest burst: acknowledgements alone (insert_vps
	// also waits for the freezes and compactions they caused).
	{Name: "ingest.ack_vps", Unit: "1/s", Better: "higher"},
	{Name: "ingest.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.freeze_s", Unit: "s", Better: "lower"},
	{Name: "ingest.compact_s", Unit: "s", Better: "lower"},
	{Name: "ingest.wal_fsyncs", Unit: "count", Better: "lower"},
	{Name: "ingest.wal_bytes_per_vector", Unit: "B", Better: "lower"},
	// End-to-end numbers without a bound. The open loop's tail: on two
	// cores a 12 s phase does not pin it within the 25 % a bound may be.
	{Name: "search.p95_ms", Unit: "ms", Better: "lower"},
	{Name: "search.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.rss_end_mb", Unit: "MB", Better: "lower"},
	// And those that exist on some workloads only (0 elsewhere): writes
	// beside reads on churn-durable, crash recovery and disk footprint
	// on the two storage workloads.
	{Name: "churn.insert_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "churn.insert_ack_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.recover_s", Unit: "s", Better: "lower"},
	{Name: "storage.disk_bytes_per_vector", Unit: "B", Better: "lower"},
	// Is the measurement itself sound.
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.achieved_rate", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// file and the code cannot drift apart (a test compares them).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // Bound is zero, hence omitted
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(b, '\n')
}
