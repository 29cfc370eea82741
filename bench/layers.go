package main

// delta is after[name] − before[name].
func delta(before, after counters, name string) float64 { return after[name] - before[name] }

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// searchLayers turns the daemon's own counters, read before and after
// the timed search phases, into per-layer metrics. queries is how many
// query sets those phases sent.
func (r *run) searchLayers(before, after counters, queries float64) {
	d := func(name string) float64 { return delta(before, after, name) }
	r.layer("segment.freezes", d("skewsim_segment_freezes_total"), "count")
	r.layer("segment.compactions", d("skewsim_segment_compactions_total"), "count")
	r.layer("segment.freeze_s", d("skewsim_segment_freeze_seconds_sum"), "s")
	r.layer("segment.compact_s", d("skewsim_segment_compact_seconds_sum"), "s")
	r.layer("segment.demotions", d("skewsim_segment_demotions_total"), "count")
	r.layer("segment.promotions", d("skewsim_segment_promotions_total"), "count")
	r.layer("segment.decode_s", d("skewsim_segment_decode_seconds_sum"), "s")
	r.layer("segment.cold_segments", after["skewsim_index_cold_segments"], "count")
	r.layer("segment.resident_mb", after["skewsim_index_resident_bytes"]/(1<<20), "MB")
	r.layer("segment.filters_per_query", ratio(d("skewsim_query_filters_sum"), queries), "count")
	r.layer("segment.candidates_per_query", ratio(d("skewsim_query_candidates_sum"), queries), "count")
	r.layer("segment.bloom_skip_ratio", ratio(d("skewsim_segment_bloom_skips_total"), d("skewsim_segment_bloom_probes_total")), "share")
	r.layer("server.admission_rejected", d("skewsim_admission_rejected_total"), "count")
	r.layer("server.fanout_partial", d("skewsim_fanout_partial_total"), "count")
	r.layer("server.fanout_abandoned", d("skewsim_fanout_abandoned_shards_total"), "count")
	r.layer("wal.appends", d("skewsim_wal_appends_total"), "count")
	r.layer("wal.fsyncs", d("skewsim_wal_fsyncs_total"), "count")
	r.layer("wal.fsync_ms_mean", 1000*ratio(d("skewsim_wal_fsync_seconds_sum"), d("skewsim_wal_fsync_seconds_count")), "ms")
	r.layer("wal.records_per_commit", ratio(d("skewsim_wal_commit_batch_records_sum"), d("skewsim_wal_commit_batch_records_count")), "count")
}

// ingestLayers does the same over the ingest burst and its digestion.
func (r *run) ingestLayers(before, after counters) {
	d := func(name string) float64 { return delta(before, after, name) }
	r.layer("ingest.freeze_s", d("skewsim_segment_freeze_seconds_sum"), "s")
	r.layer("ingest.compact_s", d("skewsim_segment_compact_seconds_sum"), "s")
	r.layer("ingest.wal_fsyncs", d("skewsim_wal_fsyncs_total"), "count")
	r.layer("ingest.wal_bytes_per_vector", ratio(after["skewsim_wal_bytes"], after["skewsim_index_live_vectors"]), "B")
}
