package main

import (
	"fmt"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/core"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
)

// alpha is the planted correlation of every workload's queries
// (q ~ D_α(x), Theorem 1); daemonAlpha is the same to four places, as
// an operator would type it after -alpha.
const (
	alpha       = 2.0 / 3.0
	daemonAlpha = 0.6667
)

// workload is one traffic mix against one daemon configuration. The
// four values below are the benchmark's fixed workloads; nothing here
// is read from flags, so two commits always run the same thing.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	profile func() []float64 // item probabilities of the product distribution
	n       int              // corpus vectors preloaded through -data
	finalN  int              // -n: the stopping rule's dataset size (n plus churn inserts)
	queries int              // distinct planted queries, replayed in order

	// Daemon flags beyond the common ones.
	reps, shards, memtable int
	durable                bool // -wal-dir -storage-dir -fsync always
	cold                   bool // durable, plus -resident-budget-mb 16 -compress-postings

	mode   string        // "best" or "first"
	batch  int           // sets per /v1/search/batch request; 0 = /v1/search
	every  time.Duration // open-loop search interval: one request is due every this often
	writes bool          // the open-loop write stream runs beside the reads
	ingest int           // vectors of the closing ingest burst

	// recallFloor fails the run when recall drops below it: a fast wrong
	// index must not pass as a fast index.
	recallFloor float64
}

// storage reports whether the daemon runs over -wal-dir/-storage-dir
// and so can be crashed and restarted.
func (w workload) storage() bool { return w.durable || w.cold }

// Open-loop rates sit at roughly 30 % of the capacity measured when the
// benchmark was defined (see README.md) and stay fixed across commits:
// latency rises before throughput stops rising as offered load nears
// capacity.
var workloads = []workload{
	{
		name:    "dense-best",
		why:     "84-bit Fig.1 vectors, mode best: lsf filter generation and verify kernels dominate, HTTP and fan-out barely show",
		profile: func() []float64 { return dist.Fig1Profile(600, 0.25) },
		n:       2000, finalN: 2000, queries: 1000,
		reps: 4, shards: 2, memtable: 512,
		mode: "best", every: time.Second / 400, ingest: 1024, recallFloor: 0.9,
	},
	{
		name:    "sparse-first",
		why:     "25-bit Zipf vectors, mode first: engine work is ~20us, so segment, server, http and gateway overhead is the result",
		profile: sparseProfile,
		n:       5000, finalN: 5000, queries: 1000,
		reps: 6, shards: 2, memtable: 1024,
		mode: "first", every: time.Second / 800, ingest: 4096, recallFloor: 0.9,
	},
	{
		name:    "churn-durable",
		why:     "inserts and deletes beside reads with WAL fsync always: memtable, freeze, compaction and group commit run during measurement",
		profile: sparseProfile,
		n:       2000, finalN: 8000, queries: 1000,
		reps: 4, shards: 2, memtable: 512,
		durable: true,
		mode:    "best", every: time.Second / 200, writes: true, ingest: 4096, recallFloor: 0.9,
	},
	{
		name:    "cold-batch",
		why:     "sparse corpus served cold from mmap with varint postings, 16-set batches: working set far above the resident budget",
		profile: sparseProfile,
		n:       5000, finalN: 5000, queries: 1008,
		reps: 6, shards: 2, memtable: 1024,
		cold: true,
		mode: "best", batch: 16, every: time.Second / 60, ingest: 4096, recallFloor: 0.9,
	},
}

func sparseProfile() []float64 { return dist.Zipf(2000, 0.5, 0.6) }

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run feeds the daemon, derived from the seed
// alone: the same seed gives the same corpus, queries and write stream.
type inputs struct {
	product *dist.Product
	corpus  []bitvec.Vector // preloaded; daemon ids 0..n-1 in this order
	queries []bitvec.Vector
	targets []int           // queries[k] was planted on corpus[targets[k]]
	writes  []bitvec.Vector // fresh draws for the insert stream (churn, ingest burst)
}

// generate draws a run's inputs: the corpus with its planted queries,
// and writeVectors fresh vectors for the insert streams.
func generate(w workload, seed uint64, writeVectors int) (*inputs, error) {
	d, err := dist.NewProduct(w.profile())
	if err != nil {
		return nil, err
	}
	cw, err := datagen.NewCorrelatedWorkload(d, w.n, w.queries, alpha, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		product: d,
		corpus:  cw.Data,
		queries: cw.Queries,
		targets: cw.Targets,
		// A second stream off the same seed, so the corpus does not depend
		// on how many writes a run needs.
		writes: d.SampleN(hashing.NewSplitMix64(seed^0x9e3779b97f4a7c15), writeVectors),
	}
	for i, v := range append(in.corpus[:len(in.corpus):len(in.corpus)], in.writes...) {
		if v.IsEmpty() {
			// dataio skips blank lines, which would shift every later id.
			return nil, fmt.Errorf("seed %d draws an empty vector at %d", seed, i)
		}
	}
	return in, nil
}

// firstThreshold is the daemon's default threshold for mode "first".
func firstThreshold() float64 {
	t, err := core.VerificationThreshold(core.Correlated, alpha)
	if err != nil {
		panic(err) // alpha is a constant in (0, 1]
	}
	return t
}
