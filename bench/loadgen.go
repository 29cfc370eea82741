package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"skewsim/internal/bitvec"
)

// maxConns is the most connections the load generator opens: the
// sandbox has two cores and the daemon runs on the same two, so more
// clients would measure the scheduler, not the daemon.
const maxConns = 2

// newConn returns a client pinned to one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// request is one pre-encoded HTTP call. Bodies are built before the
// clock starts so the measured path holds only the send, the daemon and
// the read.
type request struct {
	path string // "/v1/search", "/v1/search/batch", "/v1/insert", "/v1/delete"
	body []byte
	// first is the index of the first query (or write vector) the body
	// carries, count how many; the checker maps answers back through them.
	first, count int
}

// searchRequests encodes the workload's query set as the requests its
// traffic replays: one per query, or one per batch-sized group.
func searchRequests(w workload, queries []bitvec.Vector) []request {
	if w.batch == 0 {
		reqs := make([]request, len(queries))
		for k, q := range queries {
			reqs[k] = request{path: "/v1/search", first: k, count: 1,
				body: mustJSON(map[string]any{"set": q.Bits(), "mode": w.mode})}
		}
		return reqs
	}
	var reqs []request
	for k := 0; k+w.batch <= len(queries); k += w.batch {
		sets := make([][]uint32, w.batch)
		for j := range sets {
			sets[j] = queries[k+j].Bits()
		}
		reqs = append(reqs, request{path: "/v1/search/batch", first: k, count: w.batch,
			body: mustJSON(map[string]any{"sets": sets, "mode": w.mode})})
	}
	return reqs
}

func insertRequest(vs []bitvec.Vector, first int) request {
	sets := make([][]uint32, len(vs))
	for i, v := range vs {
		sets[i] = v.Bits()
	}
	return request{path: "/v1/insert", first: first, count: len(vs), body: mustJSON(map[string]any{"sets": sets})}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of ints and strings always encode
	}
	return b
}

// sample is one completed request as the generator saw it.
type sample struct {
	slot   int           // the request's position in the phase's schedule
	r      request       // what was sent
	due    time.Duration // offset from the phase start at which it was due (closed loop: when it was sent)
	sent   time.Duration // offset at which the send began
	done   time.Duration // offset at which the whole response had been read
	status int           // HTTP status; 0 on a transport error
	body   []byte        // response body, checked after the phase
}

// latency is what a user waited: from the moment the request was due.
func (s sample) latency() time.Duration { return s.done - s.due }

// do sends one request on c and reads the whole response.
func do(c *http.Client, base string, r request) (status int, body []byte) {
	resp, err := c.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, body
}

// sleepUntilDue blocks for d in nanosleep(2). time.Sleep will not do:
// in an otherwise idle process the Go runtime parks in epoll_wait,
// whose timeout is in whole milliseconds, so a wait is rounded up by as
// much as 1 ms — more than a sparse query takes. nanosleep wakes within
// the kernel's 50 µs timer slack.
func sleepUntilDue(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the caller's clock decides lateness
}

// openLoop sends next(i) for i = 0, 1, … one every interval for the
// given duration, on conns connections, regardless of how the daemon
// keeps up. Request i is due at i×interval; its latency runs from that
// moment, so a stall is charged to every request that was due while it
// lasted (no coordinated omission), and sent−due is how late the
// generator itself ran. next may return ok=false to skip a slot.
// onDone, when non-nil, sees each sample on its connection's goroutine
// once the sample's clock has stopped.
func openLoop(base string, interval, dur time.Duration, conns int, next func(i int) (request, bool), onDone func(sample)) []sample {
	total := int(dur / interval)
	var cursor atomic.Int64
	perConn := make([][]sample, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newConn()
			defer client.CloseIdleConnections()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= total {
					return
				}
				due := time.Duration(i) * interval
				if wait := due - time.Since(start); wait > 0 {
					sleepUntilDue(wait)
				}
				r, ok := next(i)
				if !ok {
					continue
				}
				sent := time.Since(start)
				status, body := do(client, base, r)
				s := sample{slot: i, r: r, due: due, sent: sent, done: time.Since(start), status: status, body: body}
				perConn[c] = append(perConn[c], s)
				if onDone != nil {
					onDone(s)
				}
			}
		}(c)
	}
	wg.Wait()
	return slices.Concat(perConn...)
}

// closedLoop runs clients callers that each send their next request
// only once the previous one is answered, until dur has passed or, with
// limit > 0, limit requests have been sent.
func closedLoop(base string, dur time.Duration, clients, limit int, next func(i int) request) (samples []sample, elapsed time.Duration) {
	var cursor atomic.Int64
	perConn := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newConn()
			defer client.CloseIdleConnections()
			for time.Since(start) < dur {
				i := int(cursor.Add(1)) - 1
				if limit > 0 && i >= limit {
					return
				}
				r := next(i)
				sent := time.Since(start)
				status, body := do(client, base, r)
				perConn[c] = append(perConn[c], sample{slot: i, r: r, due: sent, sent: sent, done: time.Since(start), status: status, body: body})
			}
		}(c)
	}
	wg.Wait()
	return slices.Concat(perConn...), time.Since(start)
}

// latenciesMS extracts the samples' latencies in milliseconds, in due
// order (the order windowed percentiles need).
func latenciesMS(samples []sample) []float64 {
	byDue := slices.Clone(samples)
	sortSamples(byDue)
	out := make([]float64, len(byDue))
	for i, s := range byDue {
		out[i] = float64(s.latency()) / float64(time.Millisecond)
	}
	return out
}

func sortSamples(s []sample) {
	slices.SortFunc(s, func(a, b sample) int { return cmp.Compare(a.due, b.due) })
}

func lateMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.sent-s.due) / float64(time.Millisecond)
	}
	return out
}

func describeStatus(s sample) string {
	if s.status == 0 {
		return "transport error: " + string(s.body)
	}
	return fmt.Sprintf("status %d: %.200s", s.status, s.body)
}
