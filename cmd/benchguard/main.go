// Command benchguard compares two benchjson perf records and fails when
// a guarded benchmark regressed: new ns/op more than -max-regress above
// old ns/op. It is the CI gate keeping the query-path trajectory
// monotone — the serving benchmarks are too machine-sensitive for hosted
// runners, so the default pattern guards only the QueryPath family, and
// the tolerance is generous (25%) to absorb runner noise on top of the
// -count minimum filtering benchjson already applies.
//
// Usage:
//
//	go run ./cmd/benchguard -old BENCH_PR3.json -new BENCH_PR4.json
//	go run ./cmd/benchguard -old old.json -new new.json -pattern 'QueryPath|Segmented' -max-regress 0.10
//	go run ./cmd/benchguard -new new.json -within 'Benchmark/instrumented=Benchmark/bare' -within-max 0.05
//
// Benchmarks present in only one record are reported but never fail the
// guard (renames and new benchmarks are normal between PRs); a pattern
// that matches nothing in common fails loudly so the gate cannot
// silently go dark.
//
// -within compares pairs INSIDE the candidate record: for each
// comma-separated `name=baseline` pair, the named value must not
// exceed the baseline's by more than -within-max. Each side is a
// benchmark's ns/op, or `name:metric` for one of its custom metrics
// (e.g. `Bench:instr-ns/op=Bench:bare-ns/op` compares two timings the
// benchmark measured interleaved in one run). Both sides come from the
// same record on the same machine, so the bound can be tight (5%)
// where the cross-record gate must absorb runner variance (25%). With
// -within given, -old is optional.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type result struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Count   int                `json:"count"`
	Metrics map[string]float64 `json:"metrics"`
}

func load(path string) (map[string]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]result, len(rs))
	for _, r := range rs {
		out[r.Name] = r
	}
	return out, nil
}

func main() {
	oldPath := flag.String("old", "", "baseline benchjson record")
	newPath := flag.String("new", "", "candidate benchjson record")
	pattern := flag.String("pattern", "QueryPath", "regexp of benchmark names to guard")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum tolerated ns/op increase (0.25 = +25%)")
	within := flag.String("within", "", "comma-separated name=baseline pairs compared inside the -new record")
	withinMax := flag.Float64("within-max", 0.05, "maximum tolerated ns/op excess for -within pairs (0.05 = +5%)")
	flag.Parse()
	if *newPath == "" || (*oldPath == "" && *within == "") {
		fmt.Fprintln(os.Stderr, "benchguard: -new is required, plus -old and/or -within")
		os.Exit(2)
	}
	news, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	failed := false
	if *within != "" {
		failed = !checkWithin(news, *within, *withinMax)
	}
	if *oldPath == "" {
		if failed {
			os.Exit(1)
		}
		return
	}
	re, err := regexp.Compile(*pattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	olds, err := load(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	compared, regressed := 0, 0
	for name, n := range news {
		if !re.MatchString(name) {
			continue
		}
		o, ok := olds[name]
		if !ok {
			fmt.Printf("NEW       %-55s %12.0f ns/op (no baseline)\n", name, n.NsPerOp)
			continue
		}
		compared++
		ratio := 0.0
		if o.NsPerOp > 0 {
			ratio = n.NsPerOp/o.NsPerOp - 1
		}
		status := "ok"
		if ratio > *maxRegress {
			status = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-9s %-55s %12.0f -> %12.0f ns/op (%+.1f%%)\n", status, name, o.NsPerOp, n.NsPerOp, 100*ratio)
	}
	for name, o := range olds {
		if re.MatchString(name) {
			if _, ok := news[name]; !ok {
				fmt.Printf("GONE      %-55s %12.0f ns/op (not in candidate)\n", name, o.NsPerOp)
			}
		}
	}
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: pattern %q matched no benchmark present in both records\n", *pattern)
		os.Exit(1)
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d/%d guarded benchmarks regressed more than %.0f%%\n",
			regressed, compared, 100**maxRegress)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d guarded benchmarks within +%.0f%%\n", compared, 100**maxRegress)
	if failed {
		os.Exit(1)
	}
}

// checkWithin verifies each `name=baseline` pair inside the candidate
// record. A missing side fails loudly — a renamed benchmark or metric
// must not quietly disarm the gate.
func checkWithin(news map[string]result, pairs string, max float64) bool {
	ok := true
	for _, pair := range strings.Split(pairs, ",") {
		name, base, found := strings.Cut(strings.TrimSpace(pair), "=")
		if !found || name == "" || base == "" {
			fmt.Fprintf(os.Stderr, "benchguard: malformed -within pair %q (want name=baseline)\n", pair)
			return false
		}
		nv, okN := valueOf(news, name)
		bv, okB := valueOf(news, base)
		if !okN || !okB {
			fmt.Fprintf(os.Stderr, "benchguard: -within pair %q: benchmark or metric missing from candidate record\n", pair)
			ok = false
			continue
		}
		if bv <= 0 {
			fmt.Fprintf(os.Stderr, "benchguard: -within baseline %s has non-positive value\n", base)
			ok = false
			continue
		}
		ratio := nv/bv - 1
		status := "ok"
		if ratio > max {
			status = "EXCEEDED"
			ok = false
		}
		fmt.Printf("%-9s %-70s %12.0f vs %12.0f (%+.1f%%, bound +%.0f%%)\n",
			status, name+" = "+base, nv, bv, 100*ratio, 100*max)
	}
	return ok
}

// valueOf resolves a -within side: a benchmark name (its ns/op) or
// `name:metric` (one of its custom metrics). The name also matches the
// record's name with the -GOMAXPROCS suffix `go test` appends when
// GOMAXPROCS is not 1.
func valueOf(news map[string]result, ref string) (float64, bool) {
	name, metric, has := strings.Cut(ref, ":")
	r, ok := news[name]
	for n, cand := range news {
		if procs, found := strings.CutPrefix(n, name+"-"); !ok && found {
			if _, err := strconv.Atoi(procs); err == nil {
				r, ok = cand, true
			}
		}
	}
	if !ok {
		return 0, false
	}
	if !has {
		return r.NsPerOp, true
	}
	v, ok := r.Metrics[metric]
	return v, ok
}
