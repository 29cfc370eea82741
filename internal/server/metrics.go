package server

import (
	"runtime/metrics"

	"skewsim/internal/obs"
	"skewsim/internal/segment"
	"skewsim/internal/wal"
)

// Metrics bundles the whole serving stack's instruments over one
// obs.Registry: the segment and WAL layer sets (shared by every shard —
// their atomic counters aggregate naturally), the fan-out and admission
// counters observed by the Server itself, and scrape-time gauges over
// the server's size report. Build one with NewMetrics, hand it to
// Config.Metrics (and HandlerConfig.Metrics for the HTTP face), one
// Server per Metrics: the gauges registered by New close over that
// server, and a second registration on the same registry would panic.
type Metrics struct {
	reg *obs.Registry

	// Segment and WAL are passed through to every shard.
	Segment *segment.Metrics
	WAL     *wal.Metrics

	// Admission-gate rejections, by reason: queue_full is ErrOverloaded
	// (HTTP 429), shed is ErrShed — the deadline expired while queued
	// (HTTP 503).
	RejectedQueueFull *obs.Counter
	RejectedShed      *obs.Counter

	// PartialFanouts counts fan-outs that produced a degraded answer
	// (some but not all shards merged); AbandonedShards counts shard
	// goroutines left running past a fan-out's deadline (drained by the
	// reaper, stage queued or running in the ShardError detail).
	PartialFanouts  *obs.Counter
	AbandonedShards *obs.Counter
	// StoppedShards counts shards a mode-first fan-out cut short or never
	// started because a sibling shard had already found a match.
	StoppedShards *obs.Counter
}

// NewMetrics registers the serving stack's instruments on reg, and the
// Go collector's cost beside them (registerRuntimeMetrics).
func NewMetrics(reg *obs.Registry) *Metrics {
	registerRuntimeMetrics(reg)
	return &Metrics{
		reg:     reg,
		Segment: segment.NewMetrics(reg),
		WAL:     wal.NewMetrics(reg),
		RejectedQueueFull: reg.Counter("skewsim_admission_rejected_total",
			"Requests rejected by the admission gate, by reason.", obs.L("reason", "queue_full")),
		RejectedShed: reg.Counter("skewsim_admission_rejected_total",
			"Requests rejected by the admission gate, by reason.", obs.L("reason", "shed")),
		PartialFanouts: reg.Counter("skewsim_fanout_partial_total",
			"Fan-outs answered by some but not all shards (degraded results)."),
		AbandonedShards: reg.Counter("skewsim_fanout_abandoned_shards_total",
			"Shard goroutines abandoned past a fan-out deadline."),
		StoppedShards: reg.Counter("skewsim_fanout_stopped_shards_total",
			"Shards cut short or skipped because a sibling shard answered a mode-first search."),
	}
}

// observeFanout records one fan-out's abandoned and stopped shards and
// whether its answer was partial; the common all-zero case touches
// nothing. Safe on a nil receiver (uninstrumented server).
func (m *Metrics) observeFanout(abandoned, stopped int64, partial bool) {
	if m == nil || (abandoned == 0 && stopped == 0 && !partial) {
		return
	}
	m.AbandonedShards.Add(abandoned)
	m.StoppedShards.Add(stopped)
	if partial {
		m.PartialFanouts.Inc()
	}
}

// registerRuntimeMetrics exports what the Go garbage collector costs
// the daemon, read from runtime/metrics at scrape time: its cumulative
// CPU time and the heap size its next cycle targets. The collector's
// work scales with the live heap and the pointers in it, so these are
// the signals that show pointer-bearing structures (and the frozen
// arenas' lack of pointers) in production.
func registerRuntimeMetrics(reg *obs.Registry) {
	read := func(name string) func() float64 {
		return func() float64 {
			sample := []metrics.Sample{{Name: name}}
			metrics.Read(sample)
			switch v := sample[0].Value; v.Kind() {
			case metrics.KindFloat64:
				return v.Float64()
			case metrics.KindUint64:
				return float64(v.Uint64())
			}
			return 0 // not supported by this Go runtime
		}
	}
	reg.CounterFunc("skewsim_go_gc_cpu_seconds_total",
		"CPU seconds spent by the Go garbage collector (runtime/metrics /cpu/classes/gc/total:cpu-seconds).",
		read("/cpu/classes/gc/total:cpu-seconds"))
	reg.GaugeFunc("skewsim_go_heap_goal_bytes",
		"Heap size the Go garbage collector's next cycle targets (runtime/metrics /gc/heap/goal:bytes).",
		read("/gc/heap/goal:bytes"))
}

// Registry returns the underlying registry (the HTTP face mounts its
// exposition handler and registers the per-endpoint instruments there).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// registerServerGauges registers scrape-time gauges over s: index and
// WAL sizes read from Stats(), gate occupancy read from the admission
// channel. Called once by New/ReadSnapshot after the shards exist.
func (m *Metrics) registerServerGauges(s *Server) {
	stat := func(pick func(Stats) float64) func() float64 {
		return func() float64 { return pick(s.Stats()) }
	}
	reg := m.reg
	reg.GaugeFunc("skewsim_index_live_vectors", "Live vectors (inserted minus deleted) across shards.",
		stat(func(st Stats) float64 { return float64(st.Live) }))
	reg.GaugeFunc("skewsim_index_total_slots", "Slots ever allocated across shards (deletes keep theirs).",
		stat(func(st Stats) float64 { return float64(st.Total) }))
	reg.GaugeFunc("skewsim_index_memtable_vectors", "Vectors in the active memtables.",
		stat(func(st Stats) float64 { return float64(st.Memtable) }))
	reg.GaugeFunc("skewsim_index_flushing_vectors", "Vectors in rotated, not-yet-frozen memtables.",
		stat(func(st Stats) float64 { return float64(st.Flushing) }))
	reg.GaugeFunc("skewsim_index_segments", "Frozen CSR segments across shards.",
		stat(func(st Stats) float64 { return float64(st.Segments) }))
	reg.GaugeFunc("skewsim_index_resident_segments", "Heap-resident frozen segments across shards.",
		stat(func(st Stats) float64 { return float64(st.ResidentSegments) }))
	reg.GaugeFunc("skewsim_index_cold_segments", "Mmap-backed cold frozen segments across shards.",
		stat(func(st Stats) float64 { return float64(st.ColdSegments) }))
	reg.GaugeFunc("skewsim_index_resident_bytes", "Heap bytes held by index arenas: resident frozen segments and memtables.",
		stat(func(st Stats) float64 { return float64(st.ResidentBytes) }))
	reg.GaugeFunc("skewsim_wal_bytes", "Live write-ahead log bytes across shards.",
		stat(func(st Stats) float64 { return float64(st.WALBytes) }))
	reg.GaugeFunc("skewsim_wal_files", "Live write-ahead log files across shards.",
		stat(func(st Stats) float64 {
			var files int
			for _, is := range st.PerShard {
				if is.WAL != nil {
					files += is.WAL.Files
				}
			}
			return float64(files)
		}))
	reg.GaugeFunc("skewsim_admission_inflight", "Query fan-outs holding an admission slot.",
		func() float64 { return float64(s.gate.inflight()) })
	reg.GaugeFunc("skewsim_admission_queue_depth", "Requests waiting for an admission slot.",
		func() float64 { return float64(s.gate.queueDepth()) })
}
