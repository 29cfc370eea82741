package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/datagen"
	"skewsim/internal/dataio"
	"skewsim/internal/dist"
)

// envRunMain makes the test binary act as the skewsim command: the
// tests re-execute it with this variable set and the command's own
// arguments, so fatal's os.Exit ends only the child.
const envRunMain = "SKEWSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(envRunMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// skewsim runs the command with args and returns its stdout; a non-zero
// exit fails the test with its stderr.
func skewsim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), envRunMain+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("skewsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// writeVectors writes vs in the text format cmd/datagen emits.
func writeVectors(t *testing.T, path string, vs []bitvec.Vector) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataio.Write(f, vs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// plantedWorkload is 500 vectors of a skewed two-block distribution and
// 8 queries, each an α = 0.75 correlated copy of one of them.
func plantedWorkload(t *testing.T) *datagen.CorrelatedWorkload {
	t.Helper()
	d := dist.MustProduct(dist.TwoBlock(400, 0.2, 3200, 0.025))
	w, err := datagen.NewCorrelatedWorkload(d, 500, 8, 0.75, 42)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSearchAlphaFindsPlantedTargets: `skewsim search -alpha` over a
// data file and a file of planted correlated queries reports each
// query's planted target.
func TestSearchAlphaFindsPlantedTargets(t *testing.T) {
	w := plantedWorkload(t)
	dir := t.TempDir()
	data, queries := filepath.Join(dir, "s.txt"), filepath.Join(dir, "q.txt")
	writeVectors(t, data, w.Data)
	writeVectors(t, queries, w.Queries)

	out := skewsim(t, "search", "-data", data, "-queries", queries, "-alpha", "0.75")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(w.Queries) {
		t.Fatalf("%d output lines for %d queries:\n%s", len(lines), len(w.Queries), out)
	}
	for k, line := range lines {
		var q, id int
		var sim float64
		if _, err := fmt.Sscanf(line, "query %d: match id=%d similarity=%f", &q, &id, &sim); err != nil {
			t.Fatalf("line %d %q: %v", k, line, err)
		}
		if q != k || id != w.Targets[k] {
			t.Errorf("line %q: want query %d matching its planted target %d", line, k, w.Targets[k])
		}
		if want := bitvec.BraunBlanquet(w.Queries[k], w.Data[w.Targets[k]]); math.Abs(sim-want) > 5e-5 {
			t.Errorf("line %q: similarity %.4f, want %.4f", line, sim, want)
		}
	}
}

// TestSelfJoinPairsVerifyAndSort: every pair `skewsim selfjoin
// -threshold` prints is an unordered pair (r < s) whose Braun-Blanquet
// similarity, recomputed here, is the printed one and at least the
// threshold, and the pairs come sorted by (r, s) without repeats. Most
// planted (target, query) pairs are among them.
func TestSelfJoinPairsVerifyAndSort(t *testing.T) {
	const threshold = 0.6
	w := plantedWorkload(t)
	// The planted queries join the data, so near-duplicate pairs exist.
	vs := append(append([]bitvec.Vector(nil), w.Data...), w.Queries...)
	data := filepath.Join(t.TempDir(), "s.txt")
	writeVectors(t, data, vs)

	out := skewsim(t, "selfjoin", "-data", data, "-threshold", strconv.FormatFloat(threshold, 'f', -1, 64))
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if out == "" {
		t.Fatal("no pairs printed")
	}
	planted := map[[2]int]bool{}
	for k, target := range w.Targets {
		planted[[2]int{target, len(w.Data) + k}] = true
	}
	found := 0
	prevR, prevS := -1, -1
	for _, line := range lines {
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("line %q: want r<TAB>s<TAB>similarity", line)
		}
		r, err1 := strconv.Atoi(f[0])
		s, err2 := strconv.Atoi(f[1])
		sim, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil || r < 0 || s >= len(vs) {
			t.Fatalf("line %q does not parse as an in-range pair", line)
		}
		if r >= s {
			t.Errorf("line %q: want r < s", line)
		}
		if r < prevR || (r == prevR && s <= prevS) {
			t.Errorf("line %q follows (%d, %d): pairs not sorted by (r, s)", line, prevR, prevS)
		}
		prevR, prevS = r, s
		if planted[[2]int{r, s}] {
			found++
		}
		want := bitvec.BraunBlanquetMeasure.Similarity(vs[r], vs[s])
		if want < threshold {
			t.Errorf("line %q: pair's similarity %.4f is below the threshold %.2f", line, want, threshold)
		}
		if math.Abs(sim-want) > 5e-5 {
			t.Errorf("line %q: printed similarity %.4f, recomputed %.4f", line, sim, want)
		}
	}
	if found < len(planted)/2 {
		t.Errorf("%d of %d planted pairs reported, want at least half:\n%s", found, len(planted), out)
	}
}
