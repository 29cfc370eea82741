package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"skewsim/internal/bitvec"
	"skewsim/internal/faultinject"
	"skewsim/internal/segment"
	"skewsim/internal/wal"
)

// Replication surface: a durable primary ships its per-shard WAL
// records to followers as the same CRC-framed bytes the logs store.
//
//	GET /v1/replica/wal?shard=N&from_lsn=M
//	   200  headers X-Skewsim-Shard-Count / X-Skewsim-First-Lsn /
//	        X-Skewsim-Last-Lsn, body = CRC frames for LSNs first..last
//	   204  caught up (nothing at or above from_lsn yet)
//	   410  from_lsn truncated by checkpoint — bootstrap from snapshot
//	GET /v1/replica/snapshot
//	   200  the standard server snapshot (WriteSnapshot), whose shard
//	        sections carry the per-shard applied LSNs: the resume cursors
//	POST /v1/admin/promote
//	   follower only (HandlerConfig.Promote): stop replicating, leave
//	   read-only mode, start accepting writes
//
// Checkpoint records ride the feed so LSNs stay contiguous; the
// follower advances its cursor over them without applying. Apply is
// the idempotent recovery path (re-sent records are tolerated), so a
// follower cursor may safely under-report — never over-report — what
// it has applied. internal/replica implements the follower side;
// cmd/skewgate routes around dead primaries using /healthz roles.

// maxReplicaChunk bounds one feed response. Large enough to drain a
// big backlog in few round trips, small enough to keep the primary's
// per-request buffer and the follower's apply batches bounded.
const maxReplicaChunk = 4 << 20

// SetReadOnly flips follower mode: while set, the HTTP insert and
// delete endpoints refuse with 403 and /healthz reports role
// "follower". In-process applies (ApplyReplicated) are unaffected.
func (s *Server) SetReadOnly(v bool) { s.readOnly.Store(v) }

// IsReadOnly reports whether the server refuses HTTP writes.
func (s *Server) IsReadOnly() bool { return s.readOnly.Load() }

// ApplyReplicated applies a batch of feed records to one shard through
// the same idempotent reconciliation recovery uses: an insert whose id
// is already present is skipped (a resumed feed may re-send applied
// records), a delete of an unknown id still burns the id, checkpoint
// records are position-only. The shard journals the applies to its own
// WAL, so a follower is durable in its own right.
func (s *Server) ApplyReplicated(shard int, recs []wal.Record) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("server: replicated shard %d out of range (%d shards)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	for _, rec := range recs {
		switch rec.Op {
		case wal.OpInsert:
			err := sh.InsertWithID(rec.ID, bitvec.New(rec.Bits...))
			if err != nil && !errors.Is(err, segment.ErrIDTaken) && !errors.Is(err, segment.ErrNotDurable) {
				return fmt.Errorf("server: replicated insert %d: %w", rec.ID, err)
			}
		case wal.OpDelete:
			if !sh.Delete(rec.ID) {
				sh.NoteDeadID(rec.ID)
			}
		case wal.OpCheckpoint:
			// The primary's durability fence; nothing to apply here.
		default:
			return fmt.Errorf("server: replicated record with unknown op %d", rec.Op)
		}
	}
	return nil
}

// ReseedNextID advances the id counter past every id any shard has
// seen. Promotion calls it after catch-up: replicated applies bypass
// the server counter, so a freshly promoted primary must not hand out
// ids the old primary already assigned.
func (s *Server) ReseedNextID() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		if next := sh.NextID(); next > s.next {
			s.next = next
		}
	}
}

// replicaRoutes mounts the primary-side replication endpoints and the
// follower promotion hook onto NewHandler's mux.
func replicaRoutes(srv *Server, hc HandlerConfig, handle func(pattern, endpoint string, h http.HandlerFunc)) {
	handle("GET /v1/replica/wal", "replica_wal", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		shard, err := strconv.Atoi(q.Get("shard"))
		if err != nil || shard < 0 || shard >= len(srv.shards) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("replica/wal: shard %q out of range (%d shards)", q.Get("shard"), len(srv.shards)))
			return
		}
		from, err := strconv.ParseUint(q.Get("from_lsn"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("replica/wal: invalid from_lsn %q", q.Get("from_lsn")))
			return
		}
		log := srv.shards[shard].WAL()
		if log == nil {
			httpError(w, http.StatusConflict, errors.New("replica/wal: server is not durable (no -wal); nothing to ship"))
			return
		}
		if err := faultinject.Fire(faultinject.ReplicaFeedStall, shard, from); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		buf, count, err := log.ReadFrom(from, maxReplicaChunk)
		w.Header().Set("X-Skewsim-Shard-Count", strconv.Itoa(len(srv.shards)))
		switch {
		case errors.Is(err, wal.ErrCompacted):
			// The records below the oldest live log file survive only in
			// checkpoint segment files: the follower must bootstrap.
			httpError(w, http.StatusGone, err)
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
			return
		case count == 0:
			w.WriteHeader(http.StatusNoContent)
			return
		}
		first := from
		if first == 0 {
			first = 1
		}
		w.Header().Set("X-Skewsim-First-Lsn", strconv.FormatUint(first, 10))
		w.Header().Set("X-Skewsim-Last-Lsn", strconv.FormatUint(first+uint64(count)-1, 10))
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(buf)
	})
	handle("GET /v1/replica/snapshot", "replica_snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Skewsim-Shard-Count", strconv.Itoa(len(srv.shards)))
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := srv.WriteSnapshot(w); err != nil {
			// Bytes are already on the wire; the only honest signal left
			// is tearing the stream so the follower's parse fails.
			panic(http.ErrAbortHandler)
		}
	})
	handle("POST /v1/admin/promote", "promote", func(w http.ResponseWriter, r *http.Request) {
		if hc.Promote == nil {
			httpError(w, http.StatusConflict, errors.New("promote: this server is not a follower"))
			return
		}
		if err := hc.Promote(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, map[string]string{"role": "primary"})
	})
}

// healthzHandler is the cheap liveness probe: every shard answers a
// stats read (responsive under its own lock) and reports whether its
// WAL is attached. Mounted uninstrumented — probes every few hundred
// milliseconds must not dilute the API outcome counters.
func healthzHandler(srv *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		durable := true
		for _, sh := range srv.shards {
			_ = sh.Stats()
			if sh.WAL() == nil {
				durable = false
			}
		}
		role := "primary"
		if srv.IsReadOnly() {
			role = "follower"
		}
		writeJSON(w, map[string]any{
			"status":  "ok",
			"role":    role,
			"shards":  len(srv.shards),
			"durable": durable,
		})
	}
}
