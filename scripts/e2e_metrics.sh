#!/usr/bin/env sh
# End-to-end observability gate: boot a real skewsimd, drive it with
# skewsim load, then scrape GET /metrics and fail on missing or
# malformed metric families. This is the check that the instrumentation
# actually reaches the wire — unit tests cover each layer, this covers
# the wiring between them (daemon flags, registry plumbing, exposition
# over a real socket).
#
# Usage: scripts/e2e_metrics.sh [port]
set -eu

PORT="${1:-18080}"
ADDR="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
DAEMON_PID=""

cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    [ -n "$DAEMON_PID" ] && wait "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "e2e: building binaries"
go build -o "$WORK/datagen" ./cmd/datagen
go build -o "$WORK/skewsim" ./cmd/skewsim
go build -o "$WORK/skewsimd" ./cmd/skewsimd

echo "e2e: generating dataset"
"$WORK/datagen" -uniform 0.05 -dim 256 -n 2000 -seed 7 > "$WORK/data.txt"
"$WORK/datagen" -uniform 0.05 -dim 256 -n 200 -seed 8 > "$WORK/queries.txt"

echo "e2e: booting skewsimd on $ADDR"
"$WORK/skewsimd" -addr "127.0.0.1:${PORT}" -n 4096 -dim 256 -shards 2 \
    -memtable 512 -wal-dir "$WORK/wal" -snapshot-dir "" \
    -slow-query-ms 1000 -log-format json >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

# Wait for the daemon to accept requests (the scrape subcommand doubles
# as the readiness probe).
i=0
until "$WORK/skewsim" metrics -addr "$ADDR" -timeout 2s >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "e2e: daemon never became ready; log:" >&2
        cat "$WORK/daemon.log" >&2
        exit 1
    fi
    sleep 0.2
done

echo "e2e: driving load (insert + search, with end-of-run scrape)"
"$WORK/skewsim" load -addr "$ADDR" -data "$WORK/data.txt" \
    -queries "$WORK/queries.txt" -concurrency 4 -scrape-metrics

echo "e2e: validating /metrics families"
"$WORK/skewsim" metrics -addr "$ADDR" -require \
skewsim_http_requests_total,\
skewsim_http_request_seconds,\
skewsim_query_candidates,\
skewsim_segment_freezes_total,\
skewsim_segment_checkpoint_seconds,\
skewsim_segment_checkpoint_bytes_total,\
skewsim_wal_appends_total,\
skewsim_wal_fsync_seconds,\
skewsim_wal_commit_batch_records,\
skewsim_index_live_vectors,\
skewsim_index_segments,\
skewsim_admission_inflight,\
skewsim_fanout_stopped_shards_total,\
skewsim_wal_bytes,\
skewsim_go_gc_cpu_seconds_total,\
skewsim_go_heap_goal_bytes

echo "e2e: ok"
