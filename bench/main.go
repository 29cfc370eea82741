// Command bench is the repository's end-to-end benchmark: it builds the
// real skewsimd and skewgate binaries, runs them as child processes
// under four skew-contrasting workloads, checks every answer, and
// reports end-to-end metrics (and, with -trace 1, per-layer ones). See
// README.md beside this file.
//
//	go run ./bench -workload sparse-first -seed 1 -seconds 18 -trace 0
//	go run ./bench -seed 1 -runs 3 -out a.json   # all four workloads
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"skewsim/internal/bitvec"
)

// record is what -out writes and -compare reads: where the numbers
// were taken, and every run.
type record struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"` // of the load generator; every child runs with 2
	GoVersion  string    `json:"go_version"`
	Kernel     string    `json:"bitvec_kernel"`
	Commit     string    `json:"commit"`
	Runs       []*result `json:"runs"`
}

func newRecord() *record {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &record{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     bitvec.KernelName(),
		Commit:     commit,
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name      = flag.String("workload", "", "workload to run (default: all four)")
		seed      = flag.Uint64("seed", 1, "input seed: the same seed gives the same corpus, queries and writes")
		seconds   = flag.Float64("seconds", runSeconds, "timed seconds per run, split over the open-loop, closed-loop and gateway phases")
		trace     = flag.Int("trace", 0, "1 = traced run: record spans, run the layer ledger, report per-layer metrics")
		runs      = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, …")
		out       = flag.String("out", "", "write the runs as a JSON record to this file (the input of -compare)")
		compare   = flag.Bool("compare", false, "compare two -out records: bench -compare A.json B.json")
		printJSON = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the metric tables define it and exit")
	)
	flag.Parse()
	if *printJSON {
		os.Stdout.Write(benchmarkJSON())
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}

	// Children die with the benchmark on every path out of it.
	defer killAllChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()

	binDir, err := buildBinaries()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rec := newRecord()
	ok := true
	var last *result
	for i := 0; i < *runs; i++ {
		for _, w := range selected {
			var tr *tracer
			if *trace == 1 {
				tr = newTracer()
			}
			res, err := runWorkload(w, *seed+uint64(i), *seconds, tr, binDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(res)
			rec.Runs = append(rec.Runs, res)
			ok = ok && res.Correct
			last = res
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", " ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *trace == 1 && *name == "" {
		if err := writeLedgerMD(rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *name != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object describing the (last) run of the one workload.
		if err := printContractLine(last, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// printResult prints one run for a human: every metric by name with
// its unit, the sample count beside each percentile.
func printResult(res *result) {
	fmt.Printf("== %s seed %d, %.0f s%s\n", res.Workload, res.Seed, res.Seconds, map[bool]string{true: ", traced"}[res.Traced])
	row := func(defs []metricDef, got map[string]metric) {
		for _, def := range defs {
			m, ok := got[def.Name]
			if !ok {
				continue
			}
			fmt.Printf("  %-32s %14.4f %-6s", def.Name, m.Value, m.Unit)
			if n, ok := res.Samples[def.Name]; ok {
				fmt.Printf(" n=%d", n)
			}
			fmt.Println()
		}
	}
	row(endToEnd, res.EndToEnd)
	row(perLayer, res.PerLayer)
	fmt.Printf("  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Println("  PROBLEM:", p)
	}
	if res.Invalid != "" {
		fmt.Println("  INVALID:", res.Invalid)
	}
}

// printContractLine prints the driver's result object: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func printContractLine(res *result, traced bool) error {
	defs, got := endToEnd, res.EndToEnd
	if traced {
		defs, got = perLayer, res.PerLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, def := range defs {
		m, ok := got[def.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, def.Name)
		}
		metrics[def.Name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
