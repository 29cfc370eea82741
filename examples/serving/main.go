// Serving: run SkewSearch as an online index — insert and delete while
// querying, watch memtables freeze into CSR segments and compact, then
// snapshot and restore, all through the segmented serving layer that
// cmd/skewsimd exposes over HTTP.
//
// Run with: go run ./examples/serving
package main

import (
	"bytes"
	"fmt"
	"log"

	"skewsim/internal/bitvec"
	"skewsim/internal/core"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/segment"
	"skewsim/internal/verify"
)

func main() {
	// The same engine parameterization a static core.Index would use —
	// core.EngineParams is the shared source, so the mutable index runs
	// the paper's adversarial scheme with identical filter mappings.
	const n = 4096 // expected steady-state size (stopping rule)
	d, err := dist.NewProduct(dist.Zipf(512, 0.5, 1.0))
	if err != nil {
		log.Fatal(err)
	}
	params, err := core.EngineParams(core.Adversarial, d, n, 0.5, core.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	cfg := segment.Config{
		Params:       params,
		N:            n,
		MemtableSize: 256, // small, to make freezing visible here
		MaxSegments:  2,   // aggressive compaction, same reason
	}
	// Build the repetition engines once: every index over them accepts
	// the same query plans (F(q) per repetition, computed once).
	if cfg.Engines, err = segment.NewEngines(cfg); err != nil {
		log.Fatal(err)
	}
	idx, err := segment.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	// Stream inserts: memtables fill, rotate, and freeze into CSR
	// segments in the background while the index stays queryable.
	rng := hashing.NewSplitMix64(99)
	data := d.SampleN(rng, 1500)
	ids := make([]int64, len(data))
	for i, v := range data {
		if ids[i], err = idx.Insert(v); err != nil {
			log.Fatal(err)
		}
	}
	// Delete a tenth; tombstones mask them immediately, compaction
	// reclaims them when segments merge.
	for i := 0; i < len(ids); i += 10 {
		idx.Delete(ids[i])
	}
	idx.WaitIdle()
	st := idx.Stats()
	fmt.Printf("after %d inserts / %d deletes: %d live, %d frozen segments %v, %d in memtable (%d freezes, %d compactions)\n",
		len(ids), len(ids)/10, st.Live, st.Segments, st.SegmentSizes, st.Memtable, st.Freezes, st.Compactions)

	// Query while mutable: a planted near-duplicate of a live vector.
	q := data[1]
	ses := verify.Acquire(bitvec.BraunBlanquetMeasure, q)
	defer verify.Release(ses)
	search := func(ix *segment.SegmentedIndex, mode segment.Mode, k int) (segment.Result, segment.QueryStats) {
		p := segment.NewPlan(cfg.Engines)
		p.Reset(q)
		res, st, _ := ix.Search(nil, p, segment.Request{Sessions: []*verify.Session{ses}, Mode: mode, K: k})
		return res[0], st
	}
	best, qs := search(idx, segment.ModeBest, 0)
	fmt.Printf("self-query over %d segments: found=%v id=%d sim=%.2f (%d candidates, %d distinct)\n",
		qs.Segments, best.Found, best.Match.ID, best.Match.Similarity, qs.Candidates, qs.Distinct)

	top, _ := search(idx, segment.ModeTopK, 3)
	fmt.Printf("top-3:")
	for _, m := range top.Matches {
		fmt.Printf(" (%d, %.2f)", m.ID, m.Similarity)
	}
	fmt.Println()

	// Snapshot the layered state and restore it into a fresh index —
	// same Params, same answers, ids and tombstones preserved.
	var snap bytes.Buffer
	if _, err := idx.WriteSnapshot(&snap); err != nil {
		log.Fatal(err)
	}
	restored, err := segment.ReadSnapshot(&snap, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer restored.Close()
	rbest, _ := search(restored, segment.ModeBest, 0)
	fmt.Printf("restored %d live vectors; same query: found=%v id=%d sim=%.2f\n",
		restored.Stats().Live, rbest.Found, rbest.Match.ID, rbest.Match.Similarity)
}
