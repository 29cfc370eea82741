// Package skewsim is a from-scratch Go reproduction of "Set Similarity
// Search for Skewed Data" (McCauley, Mikkelsen, Pagh — PODS 2018,
// arXiv:1804.03054).
//
// The paper's data structure — a skew-adaptive locality-sensitive
// filtering scheme — lives in internal/core (SkewSearch), built on the
// shared filtering engine in internal/lsf. Baselines (Chosen Path,
// prefix filtering, brute force), the probabilistic data
// model, exponent solvers, dataset generators, a similarity-join driver,
// and the experiment harness that regenerates every table and figure of
// the paper are in the sibling internal packages. Candidate
// verification across every layer runs through internal/verify's
// packed popcount engine over internal/bitvec's word-packed vector
// forms. For serving rather
// than experiments, internal/segment makes the index online-mutable
// (memtable + frozen CSR segments, LSM-style), internal/wal makes it
// crash-durable (write-ahead logging with checkpoint truncation), and
// internal/server shards it behind the cmd/skewsimd HTTP daemon.
//
// Start with README.md (package map, quickstart, benchmark headlines);
// API.md documents the daemon's HTTP/JSON endpoints and durability
// semantics; DESIGN.md holds the full architecture inventory and
// EXPERIMENTS.md the paper-vs-measured results.
//
// Quick start:
//
//	go test -run Example -v ./internal/core     # index a skewed corpus, answer planted queries
//	go test -run Example -v ./internal/segment  # online insert and search
//	go run ./cmd/experiments        # regenerate all paper artifacts
//	go run ./cmd/skewsimd           # HTTP serving daemon (see API.md)
//	go test -bench=. -benchmem      # benchmark harness
package skewsim
