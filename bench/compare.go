package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one (workload, metric) pair between two run sets.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"  // B's median is worse than A's by more than the bound
	verdictUnresolved verdict = "unresolved" // run-to-run spread is wider than the bound: no statement possible
)

// worsening is how much worse b is than a as a share of a, signed so
// that positive is worse whichever direction the metric improves in.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies def's fixed bound to two sets of runs of one workload.
// A pair is regressed when B's median is worse than A's by more than
// the bound; otherwise unresolved when either set's own quartile spread
// exceeds the bound (the bound cannot be told from noise); otherwise ok.
// setup_s is exempt from the spread rule: it is already a median of
// several set-ups per run and the acceptance check exempts it too.
func judge(def metricDef, a, b []float64) (v verdict, medA, medB, spreadAB float64) {
	medA, medB = median(a), median(b)
	if len(a) >= 2 {
		spreadAB = spread(a)
	}
	if len(b) >= 2 {
		spreadAB = max(spreadAB, spread(b))
	}
	switch {
	case worsening(def, medA, medB) > def.Bound:
		v = verdictRegressed
	case spreadAB > def.Bound && def.Name != "setup_s":
		v = verdictUnresolved
	default:
		v = verdictOK
	}
	return v, medA, medB, spreadAB
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// values collects one end-to-end metric of one workload over a record's
// valid runs.
func (rec *record) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rec.Runs {
		if m, ok := r.EndToEnd[metric]; ok && r.Workload == workload && r.Invalid == "" {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the process exit code: 1 if any pair regressed or could not
// be resolved.
func compareFiles(pathA, pathB string) int {
	a, err := readRecord(pathA)
	if err == nil {
		var b *record
		if b, err = readRecord(pathB); err == nil {
			return compareRecords(os.Stdout, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareRecords(out io.Writer, a, b *record) int {
	fmt.Fprintf(out, "A: commit %s, %s, kernel %s, nproc %d\n", a.Commit, a.GoVersion, a.Kernel, a.NProc)
	fmt.Fprintf(out, "B: commit %s, %s, kernel %s, nproc %d\n", b.Commit, b.GoVersion, b.Kernel, b.NProc)
	fmt.Fprintf(out, "%-14s %-22s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values(w.name, def.Name), b.values(w.name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, medA, medB, sp := judge(def, va, vb)
			fmt.Fprintf(out, "%-14s %-22s %12.4f %12.4f %+7.1f%% %6.1f%% %5.0f%%  %s (n=%d,%d)\n",
				w.name, def.Name, medA, medB, 100*worsening(def, medA, medB), 100*sp, 100*def.Bound, v, len(va), len(vb))
			if v != verdictOK {
				code = 1
			}
		}
	}
	return code
}
