package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"skewsim/internal/promscrape"
)

// buildDir holds everything a run leaves behind (binaries, temp dirs,
// traces). It sits in the current directory because the benchmark may
// read and write only inside its checkout; .gitignore names it.
const buildDir = ".bench_build"

// rssLimitKB aborts set-up when a daemon's resident set passes 6 GiB:
// on a shared box a runaway index must fail the run, not the machine.
const rssLimitKB = 6 << 20

// buildBinaries compiles the real daemons once per run. `go build`
// does its own staleness check, so repeat runs in one checkout pay a
// link-free no-op.
func buildBinaries() (binDir string, err error) {
	binDir, err = filepath.Abs(filepath.Join(buildDir, "bin"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/skewsimd", "./cmd/skewgate")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/skewsimd ./cmd/skewgate: %w\n%s", err, out.String())
	}
	return binDir, nil
}

// children tracks every process the benchmark starts so that an exit on
// any path — normal, error, signal — leaves none behind.
var children struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// killAllChildren is called on the way out of main and from the signal
// handler.
func killAllChildren() {
	children.Lock()
	ps := make([]*proc, 0, len(children.procs))
	for p := range children.procs {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// proc is one child process in its own process group.
type proc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *bytes.Buffer
	done   chan struct{} // closed once Wait has returned
}

// startProc execs bin with GOMAXPROCS=2 in a new process group (so a
// kill reaches anything it forks) and with a parent-death signal (so a
// SIGKILLed benchmark does not orphan it).
func startProc(bin string, port int, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), stderr: new(bytes.Buffer), done: make(chan struct{})}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	children.Lock()
	if children.procs == nil {
		children.procs = make(map[*proc]struct{})
	}
	children.procs[p] = struct{}{}
	children.Unlock()
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: every child is killed, none exits on its own
		close(p.done)
	}()
	return p, nil
}

// kill SIGKILLs the process group and waits until the process has
// ended. Safe to call twice.
func (p *proc) kill() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // ESRCH once it is gone
	<-p.done
	children.Lock()
	delete(children.procs, p)
	children.Unlock()
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// procStatusKB reads one "Vm*" line of /proc/<pid>/status in KiB.
func (p *proc) procStatusKB(field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on the box is expected
// to grab it in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemonDirs are the directories a storage workload hands to skewsimd;
// unused by the in-RAM workloads.
type daemonDirs struct{ wal, storage string }

// daemonArgs is the skewsimd command line for w. Every daemon estimates
// its item probabilities from the generated corpus file (-data) and
// preloads it.
func daemonArgs(w workload, port int, corpusPath string, dirs daemonDirs) []string {
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-data", corpusPath,
		"-alpha", strconv.FormatFloat(daemonAlpha, 'f', -1, 64),
		"-n", strconv.Itoa(w.finalN),
		"-reps", strconv.Itoa(w.reps),
		"-shards", strconv.Itoa(w.shards),
		"-memtable", strconv.Itoa(w.memtable),
		"-max-segments", strconv.Itoa(maxSegments),
		"-snapshot-dir", "",
		"-log-level", "warn",
	}
	if w.storage() {
		args = append(args, "-wal-dir", dirs.wal, "-storage-dir", dirs.storage, "-fsync", "always")
	}
	if w.cold {
		args = append(args, "-resident-budget-mb", "16", "-compress-postings")
	}
	return args
}

// startGateway runs a skewgate in front of one backend and waits until
// its first probe has found it (/healthz answers 503 before that).
func startGateway(binDir, backend string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	g, err := startProc(filepath.Join(binDir, "skewgate"), port,
		"-addr", "127.0.0.1:"+strconv.Itoa(port), "-backends", backend, "-log-level", "warn")
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(readyTimeout)
	for !g.healthy() {
		if g.exited() || time.Now().After(deadline) {
			g.kill()
			return nil, fmt.Errorf("skewgate did not become healthy:\n%s", g.stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return g, nil
}

// httpClient is shared by the control-plane calls (stats, metrics,
// health); the load generator has its own per-connection clients.
var httpClient = &http.Client{Timeout: 30 * time.Second}

func (p *proc) healthy() bool {
	resp, err := httpClient.Get(p.base + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// counters is one scrape of the daemon's /metrics flattened to sample
// name → value summed over labels (histograms keep their _sum and
// _count series, buckets are dropped). /metrics carries everything
// /v1/stats does — live, flushing, segment and tier sizes — next to the
// work counters, so one scrape is one consistent reading.
type counters map[string]float64

func (p *proc) counters() (counters, error) {
	fams, err := promscrape.Scrape(httpClient, p.base)
	if err != nil {
		return nil, err
	}
	c := make(counters)
	for _, fam := range fams {
		for _, s := range fam.Samples {
			if !strings.HasSuffix(s.Name, "_bucket") {
				c[s.Name] += s.Value
			}
		}
	}
	return c, nil
}

// backgroundCounters move only when the daemon does work no request
// asked for: freezes, compactions, tier moves. A read-only phase must
// leave them untouched.
var backgroundCounters = []string{
	"skewsim_segment_freezes_total",
	"skewsim_segment_compactions_total",
	"skewsim_segment_demotions_total",
	"skewsim_segment_promotions_total",
}

// sameBackground reports whether no background work happened between
// two scrapes.
func sameBackground(a, b counters) bool {
	for _, name := range backgroundCounters {
		if a[name] != b[name] {
			return false
		}
	}
	return true
}

// maxSegments is skewsimd's -max-segments, passed explicitly so that
// waitQuiescent knows when a shard still owes a compaction.
const maxSegments = 4

// compactionPending asks /v1/stats whether any shard holds more
// segments than -max-segments allows: its worker is then merging, or
// about to, even though no counter has moved yet.
func (p *proc) compactionPending() (bool, error) {
	resp, err := httpClient.Get(p.base + "/v1/stats")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var st struct{ PerShard []struct{ Segments int } }
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return false, fmt.Errorf("/v1/stats: %w", err)
	}
	for _, sh := range st.PerShard {
		if sh.Segments > maxSegments {
			return true, nil
		}
	}
	return false, nil
}

// waitQuiescent is the benchmark's readiness: /healthz answers 200, no
// vectors are flushing, no shard owes a compaction, and the background
// counters stood still over two consecutive polls. skewsimd answers
// /healthz while memtables are still freezing, and a first query pass
// then reads ten times slower than a settled one. A cold workload
// additionally waits until every segment is demoted. It returns the
// last scrape.
func (p *proc) waitQuiescent(w workload, timeout time.Duration) (counters, error) {
	deadline := time.Now().Add(timeout)
	const poll = 20 * time.Millisecond
	for !p.healthy() {
		if p.exited() {
			return nil, fmt.Errorf("daemon exited during start-up:\n%s", p.stderr.String())
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon not healthy after %v:\n%s", timeout, p.stderr.String())
		}
		time.Sleep(poll)
	}
	var last counters
	still := 0
	for {
		c, err := p.counters()
		if err != nil {
			return nil, err
		}
		pending, err := p.compactionPending()
		if err != nil {
			return nil, err
		}
		settled := !pending && c["skewsim_index_flushing_vectors"] == 0 &&
			(!w.cold || c["skewsim_index_cold_segments"] == c["skewsim_index_segments"])
		if settled && last != nil && sameBackground(c, last) {
			still++
		} else {
			still = 0
		}
		if still >= 2 {
			return c, nil
		}
		last = c
		if rss, err := p.procStatusKB("VmRSS"); err == nil && rss > rssLimitKB {
			return nil, fmt.Errorf("daemon RSS %d KiB passed the %d KiB limit", rss, rssLimitKB)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon not quiescent after %v: flushing %v, segments %v, cold %v, compaction pending %v", timeout,
				c["skewsim_index_flushing_vectors"], c["skewsim_index_segments"], c["skewsim_index_cold_segments"], pending)
		}
		time.Sleep(poll)
	}
}
