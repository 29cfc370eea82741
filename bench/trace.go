package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark around its calls into each layer — the program carries
// no tracing of its own yet — kept in memory, and written out when the
// run ends.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`   // ns since the tracer started
	End     int64  `json:"end"`     // ns since the tracer started
	Parent  int    `json:"parent"`  // index of the span that caused this one; -1 for a root
	Request int    `json:"request"` // spans of one request share this
}

// tracer collects spans. A nil *tracer records nothing, which is how an
// untraced run pays nothing.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	s  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span and returns its index for children to name.
func (t *tracer) add(name string, start, end time.Time, parent, request int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.s = append(t.s, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Request: request})
	return len(t.s) - 1
}

// addSamples turns a load phase's samples into spans after the phase:
// a root per request from its due time to its last byte, with the
// generator's own lateness and the time on the wire as children.
func (t *tracer) addSamples(phase string, phaseStart time.Time, samples []sample) {
	if t == nil {
		return
	}
	for _, s := range samples {
		root := t.add(phase, phaseStart.Add(s.due), phaseStart.Add(s.done), -1, s.slot)
		t.add("loadgen.wait", phaseStart.Add(s.due), phaseStart.Add(s.sent), root, s.slot)
		t.add("daemon.http", phaseStart.Add(s.sent), phaseStart.Add(s.done), root, s.slot)
	}
}

// write dumps the spans as JSON under buildDir/out.
func (t *tracer) write(workload string) (string, error) {
	dir := filepath.Join(buildDir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	b, err := json.Marshal(t.s)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
