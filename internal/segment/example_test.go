package segment_test

import (
	"fmt"

	"skewsim/internal/bitvec"
	"skewsim/internal/core"
	"skewsim/internal/dist"
	"skewsim/internal/segment"
	"skewsim/internal/verify"
)

func Example() {
	d := dist.MustProduct(dist.Zipf(32, 0.5, 1.0))
	params, _ := core.EngineParams(core.Adversarial, d, 1024, 0.5, core.Options{Seed: 1, Repetitions: 3})
	cfg := segment.Config{Params: params, N: 1024}
	cfg.Engines, _ = segment.NewEngines(cfg) // shared by every index and query plan over them
	s, _ := segment.New(cfg)
	defer s.Close()
	id, _ := s.Insert(bitvec.New(1, 2, 3, 4))

	q := bitvec.New(1, 2, 3, 4)
	ses := verify.Acquire(bitvec.BraunBlanquetMeasure, q)
	defer verify.Release(ses)
	p := segment.NewPlan(cfg.Engines)
	p.Reset(q)
	res, _, _ := s.Search(nil, p, segment.Request{Sessions: []*verify.Session{ses}, Mode: segment.ModeBest})
	fmt.Println(id, res[0].Found, res[0].Match.ID)
	// Output: 0 true 0
}
