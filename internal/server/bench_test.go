package server

import (
	"context"
	"fmt"
	"testing"

	"skewsim/internal/bitvec"
)

// BenchmarkShardFanout measures query fan-out cost across shard counts
// over a fixed corpus: the per-query price of partitioning (a probe per
// shard and a merge) against the smaller per-shard candidate sets and
// the parallel walk. F(q) is planned once per request and shared by
// every shard, so filtergen/op — (query, repetition) filter sets
// generated — stays at the repetition count in mode best. The
// mode=first runs are the thin-query side: planted queries over the
// sparse-first shape, where the first hit stops the other shards —
// filters/op is the work the fan-out did not skip.
func BenchmarkShardFanout(b *testing.B) {
	const n = 4096
	data := testData(n)
	qs := testData(256)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := testConfig(b, n, 4, shards)
			cfg.Segment.MemtableSize = 512
			srv, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(srv.Close)
			if _, err := srv.InsertBatch(data); err != nil {
				b.Fatal(err)
			}
			srv.Flush()
			srv.WaitIdle()
			m := bitvec.BraunBlanquetMeasure
			filtergen, restore := countFilterGen()
			defer restore()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.QueryBestContext(context.Background(), qs[i%len(qs)], m)
			}
			b.ReportMetric(float64(filtergen.Load())/float64(b.N), "filtergen/op")
		})
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("mode=first/shards=%d", shards), func(b *testing.B) {
			cfg, cw, thr := plantedWorkload(b, 5000, 1000, shards, 1)
			srv := loadFrozen(b, cfg, cw.Data)
			m := bitvec.BraunBlanquetMeasure
			filters := 0
			filtergen, restore := countFilterGen()
			defer restore()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, _, _ := srv.QueryContext(context.Background(), cw.Queries[i%len(cw.Queries)], thr, m)
				filters += stats.Filters
			}
			b.ReportMetric(float64(filters)/float64(b.N), "filters/op")
			b.ReportMetric(float64(filtergen.Load())/float64(b.N), "filtergen/op")
		})
	}
}

// BenchmarkShardInsert measures batched online insert throughput
// through the router's per-shard fan-out.
func BenchmarkShardInsert(b *testing.B) {
	const batch = 256
	data := testData(batch)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := testConfig(b, 1<<16, 4, shards)
			cfg.Segment.MemtableSize = 4096
			srv, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(srv.Close)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.InsertBatch(data); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			srv.WaitIdle()
			b.ReportMetric(float64(batch), "vecs/op")
		})
	}
}
