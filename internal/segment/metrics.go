package segment

import (
	"time"

	"skewsim/internal/obs"
)

// Metrics is the segment layer's instrument set (see internal/obs). One
// Metrics instance is shared by every shard of a server: the counters
// and histograms aggregate naturally across shards because each
// observation is an atomic add into the shared instrument. Attach via
// Config.Metrics; a nil Metrics disables instrumentation entirely (the
// query path then pays one nil compare per query).
//
// Size gauges (memtable vectors, frozen segment count, live/total
// slots) are deliberately NOT here: they are point-in-time reads of
// state IndexStats already reports, so the serving layer registers
// scrape-time GaugeFuncs over Stats() instead of mirroring state.
type Metrics struct {
	// Freezes / Compactions count completed background operations;
	// FreezeSeconds / CompactSeconds are their durations (the freeze
	// clock starts when the worker picks the memtable up, so queue wait
	// is excluded; during WAL recovery the worker is paused and neither
	// moves).
	Freezes        *obs.Counter
	Compactions    *obs.Counter
	FreezeSeconds  *obs.Histogram
	CompactSeconds *obs.Histogram

	// Per-query work histograms, observed once per (shard-)search —
	// the engine-level QueryStats made continuously visible. A drift of
	// the data distribution away from the engines' probability model
	// shows up here first, as a shift of the candidate-count
	// distribution. Index 0 is the query="single" child, for one-query
	// searches; a search of several queries observes its aggregate once
	// under index 1, query="batch", since batch stats are not separable
	// per query.
	QueryCandidates, QueryFilters, QueryDistinct [2]*obs.Histogram
	QueryTruncated                               *obs.Counter
	// QueryFellBack counts shard-queries answered by the exact-scan
	// fallback (QueryStats.FellBack), batch queries included.
	QueryFellBack *obs.Counter

	// Storage tiering: Demotions/Promotions count completed tier moves
	// (a cold segment's heap arenas dropped / rebuilt); DecodeSeconds is
	// the duration of one promotion's full heap decode. BloomProbes /
	// BloomSkips count per-segment bloom filter consultations and the
	// probes they saved — skips/probes is the filter's hit rate on the
	// workload. Resident/cold byte and segment gauges are Stats() fields
	// (scrape-time GaugeFuncs, per the note above).
	Demotions     *obs.Counter
	Promotions    *obs.Counter
	DecodeSeconds *obs.Histogram
	BloomProbes   *obs.Counter
	BloomSkips    *obs.Counter

	// CheckpointSeconds is the duration of one segment file write
	// (stream, fsync, rename, directory fsync), freeze and compaction
	// alike; CheckpointBytes sums the sizes of the files written.
	// Failed writes observe neither.
	CheckpointSeconds *obs.Histogram
	CheckpointBytes   *obs.Counter
}

// NewMetrics registers the segment layer's instruments on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	// Durations: 1µs-ish to ~134s in powers of two, exposed in seconds.
	dur := obs.HistogramOpts{MinPow: 10, MaxPow: 37, Scale: 1e-9}
	// Work counts: 1 to ~1M in powers of two.
	work := obs.HistogramOpts{MinPow: 0, MaxPow: 20}
	m := &Metrics{
		Freezes:        reg.Counter("skewsim_segment_freezes_total", "Memtables frozen into CSR segments."),
		Compactions:    reg.Counter("skewsim_segment_compactions_total", "Frozen-segment merges performed."),
		FreezeSeconds:  reg.Histogram("skewsim_segment_freeze_seconds", "Duration of one memtable freeze.", dur),
		CompactSeconds: reg.Histogram("skewsim_segment_compact_seconds", "Duration of one segment compaction.", dur),
		QueryTruncated: reg.Counter("skewsim_query_truncated_total", "Repetitions whose filter generation hit the budget."),
		QueryFellBack:  reg.Counter("skewsim_query_fellback_total", "Shard-queries answered by an exact scan after every repetition truncated."),
		Demotions:      reg.Counter("skewsim_segment_demotions_total", "Frozen segments demoted to cold (mmap-backed) serving."),
		Promotions:     reg.Counter("skewsim_segment_promotions_total", "Cold segments promoted back to resident heap arenas."),
		DecodeSeconds:  reg.Histogram("skewsim_segment_decode_seconds", "Duration of one promotion's segment decode.", dur),
		BloomProbes:    reg.Counter("skewsim_segment_bloom_probes_total", "Per-segment bloom filter consultations."),
		BloomSkips:     reg.Counter("skewsim_segment_bloom_skips_total", "Segment probes skipped by the bloom filter."),

		CheckpointSeconds: reg.Histogram("skewsim_segment_checkpoint_seconds", "Duration of one segment file write, fsync and rename.", dur),
		CheckpointBytes:   reg.Counter("skewsim_segment_checkpoint_bytes_total", "Bytes of segment files written."),
	}
	for i, query := range []string{"single", "batch"} {
		l := obs.L("query", query)
		m.QueryCandidates[i] = reg.Histogram("skewsim_query_candidates", "Candidate occurrences per shard-query.", work, l)
		m.QueryFilters[i] = reg.Histogram("skewsim_query_filters", "Filters (|F(q)|) probed per shard-query.", work, l)
		m.QueryDistinct[i] = reg.Histogram("skewsim_query_distinct", "Distinct live candidates verified per shard-query.", work, l)
	}
	return m
}

// observeSearch records one search's stats (canceled or not): under
// query="single" for a one-query search, query="batch" otherwise.
func (m *Metrics) observeSearch(st *QueryStats, queries int) {
	i := min(queries-1, 1)
	m.QueryCandidates[i].Observe(int64(st.Candidates))
	m.QueryFilters[i].Observe(int64(st.Filters))
	m.QueryDistinct[i].Observe(int64(st.Distinct))
	if st.Truncated > 0 {
		m.QueryTruncated.Add(int64(st.Truncated))
	}
	if st.FellBack > 0 {
		m.QueryFellBack.Add(int64(st.FellBack))
	}
	if st.BloomProbes > 0 {
		m.BloomProbes.Add(int64(st.BloomProbes))
	}
	if st.BloomSkips > 0 {
		m.BloomSkips.Add(int64(st.BloomSkips))
	}
}

// observeCheckpoint records one segment file written in d.
func (m *Metrics) observeCheckpoint(d time.Duration, bytes int64) {
	m.CheckpointSeconds.ObserveDuration(d)
	m.CheckpointBytes.Add(bytes)
}
