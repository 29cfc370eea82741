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

	// Per-query work histograms, observed once per (shard-)query
	// traversal — the engine-level QueryStats made continuously
	// visible. A drift of the data distribution away from the engines'
	// probability model shows up here first, as a shift of the
	// candidate-count distribution. Batch searches observe their
	// aggregate once per (shard-)batch, tagged by the query="batch"
	// label, because batch stats are not separable per query.
	QueryCandidates *obs.Histogram
	QueryFilters    *obs.Histogram
	QueryDistinct   *obs.Histogram
	QueryTruncated  *obs.Counter
	// QueryFellBack counts shard-queries answered by the exact-scan
	// fallback (QueryStats.FellBack), batch queries included.
	QueryFellBack *obs.Counter

	BatchCandidates *obs.Histogram
	BatchFilters    *obs.Histogram
	BatchDistinct   *obs.Histogram

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
	single, batch := obs.L("query", "single"), obs.L("query", "batch")
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
	m.QueryCandidates = reg.Histogram("skewsim_query_candidates", "Candidate occurrences per shard-query.", work, single)
	m.QueryFilters = reg.Histogram("skewsim_query_filters", "Filters (|F(q)|) probed per shard-query.", work, single)
	m.QueryDistinct = reg.Histogram("skewsim_query_distinct", "Distinct live candidates verified per shard-query.", work, single)
	m.BatchCandidates = reg.Histogram("skewsim_query_candidates", "Candidate occurrences per shard-query.", work, batch)
	m.BatchFilters = reg.Histogram("skewsim_query_filters", "Filters (|F(q)|) probed per shard-query.", work, batch)
	m.BatchDistinct = reg.Histogram("skewsim_query_distinct", "Distinct live candidates verified per shard-query.", work, batch)
	return m
}

// observeQuery records one completed (or canceled) single-query
// traversal's stats.
func (m *Metrics) observeQuery(st *QueryStats) {
	m.QueryCandidates.Observe(int64(st.Candidates))
	m.QueryFilters.Observe(int64(st.Filters))
	m.QueryDistinct.Observe(int64(st.Distinct))
	m.observeTruncation(st)
}

// observeBatch records one batch traversal's aggregate stats.
func (m *Metrics) observeBatch(st *QueryStats) {
	m.BatchCandidates.Observe(int64(st.Candidates))
	m.BatchFilters.Observe(int64(st.Filters))
	m.BatchDistinct.Observe(int64(st.Distinct))
	m.observeTruncation(st)
}

// observeTruncation records the budget hits, their fallbacks, and the
// bloom work shared by both query kinds.
func (m *Metrics) observeTruncation(st *QueryStats) {
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
