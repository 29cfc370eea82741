// Package faultinject is the registry-gated fault-injection seam for
// the serving stack: named injection points compiled into the WAL
// (fsync), the segment worker (checkpoint write and its chunks, freeze),
// the query plan (one repetition computed) and the shard fan-out
// (stall) fire a test-installed hook when one is armed and cost one
// atomic load when none is.
//
// The points stay compiled in (no build tag) so the fault suite runs as
// part of the ordinary test tiers; the armed-count fast path keeps the
// production cost of a disarmed point to a single atomic load and
// branch — off the per-candidate hot loops entirely (every wired point
// sits on an IO, fan-out or per-repetition boundary, never inside a
// posting walk).
//
// Hooks are process-global, so tests that arm a point must not run in
// parallel with tests sensitive to it (the fault tests arm, exercise,
// and restore within one test body).
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Point names one compiled-in injection site.
type Point string

// The wired injection points.
const (
	// WALFsync fires inside wal.Log.Commit just before the group-commit
	// fsync; a non-nil return is surfaced exactly as a real fsync
	// failure (segment.ErrNotDurable at the API). Args: none.
	WALFsync Point = "wal.fsync"
	// SegmentCheckpointWrite fires at the top of a checkpoint segment
	// file write (freeze and compaction persistence); a non-nil return
	// simulates disk-full — the file is not written and the log is left
	// un-fenced. Args: the checkpoint sequence number (uint64).
	SegmentCheckpointWrite Point = "segment.checkpoint-write"
	// SegmentCheckpointChunk fires before each chunk write of a segment
	// file, after the temp file is open and partly written; a non-nil
	// return fails that write as a real write error would (EIO, or
	// disk-full mid-file). Args: the checkpoint sequence number
	// (uint64) and the chunk's file offset (int64).
	SegmentCheckpointChunk Point = "segment.checkpoint-chunk"
	// SegmentSlowFreeze fires at the start of freezing a memtable into
	// a CSR segment; hooks typically sleep to widen the freeze window.
	// The return value is ignored. Args: the memtable size (int).
	SegmentSlowFreeze Point = "segment.slow-freeze"
	// SegmentPlanned fires after a traversal has computed one repetition
	// of a query plan (every query's filter set and path hashes); hooks
	// count filter generation. The return value is ignored. Args: the
	// repetition (int) and the plan's query count (int).
	SegmentPlanned Point = "segment.planned"
	// ServerShardStall fires in the query fan-out before a shard is
	// queried; a hook can block (e.g. until the request context is
	// done) to simulate a stalled shard, and a non-nil return marks the
	// shard failed. Args: the request context.Context and the shard
	// number (int).
	ServerShardStall Point = "server.shard-stall"
	// ReplicaFeedStall fires in the replication feed handler
	// (GET /v1/replica/wal) before any frames are read; a hook can block
	// to simulate a stalled primary, and a non-nil return fails the
	// request with a 500. Args: the shard number (int) and the requested
	// from-LSN (uint64).
	ReplicaFeedStall Point = "replica.feed-stall"
	// ReplicaSnapshotTruncate fires in server.WriteSnapshot (the
	// GET /v1/replica/snapshot bootstrap stream among others) after the
	// header is written; a non-nil return fails the write, and the
	// handler aborts the response mid-stream, handing the follower a
	// truncated snapshot. Args: none.
	ReplicaSnapshotTruncate Point = "replica.snapshot-truncate"
)

// Hook is an injected behaviour. It receives the point's site-specific
// args and may block; a non-nil error is delivered to the injection
// site as if the faulted operation had failed.
type Hook func(args ...any) error

var (
	armed atomic.Int32
	mu    sync.Mutex
	hooks map[Point]Hook
)

// Enabled reports whether any hook is armed — the one-atomic-load fast
// path injection sites branch on (via Fire).
func Enabled() bool { return armed.Load() != 0 }

// Fire invokes the hook armed at point, if any, and returns its error.
// With no hook armed anywhere it costs one atomic load.
func Fire(point Point, args ...any) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	h := hooks[point]
	mu.Unlock()
	if h == nil {
		return nil
	}
	return h(args...)
}

// Set arms hook at point and returns a restore function that reinstates
// whatever was armed before (typically nothing). Tests should defer the
// restore; passing a nil hook disarms the point.
func Set(point Point, hook Hook) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = make(map[Point]Hook)
	}
	prev, hadPrev := hooks[point]
	setLocked(point, hook)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if hadPrev {
			setLocked(point, prev)
		} else {
			setLocked(point, nil)
		}
	}
}

// setLocked installs or removes a hook and keeps the armed count in
// step. Caller holds mu.
func setLocked(point Point, hook Hook) {
	_, had := hooks[point]
	switch {
	case hook == nil && had:
		delete(hooks, point)
		armed.Add(-1)
	case hook != nil && !had:
		hooks[point] = hook
		armed.Add(1)
	case hook != nil:
		hooks[point] = hook
	}
}
