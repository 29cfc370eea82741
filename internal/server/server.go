// Package server shards a segmented index for serving (the scale-out
// face of the paper's §4 structure, beyond the paper's scope): K
// independent segment.SegmentedIndex shards, data partitioned by id
// hash, queries fanned out over a bounded worker pool and aggregated.
// Each shard owns its own memtable, freeze queue, compaction worker,
// and (when configured) write-ahead log, so writes scale with the
// shard count and a freeze in one shard never stalls another. The HTTP
// face lives in http.go and is documented in API.md; cmd/skewsimd
// wires it to a listener.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"skewsim/internal/bitvec"
	"skewsim/internal/faultinject"
	"skewsim/internal/lsf"
	"skewsim/internal/segment"
	"skewsim/internal/wal"
)

// Config sizes a Server.
type Config struct {
	// Shards is the number of SegmentedIndex partitions. Defaults to 4.
	Shards int
	// Workers bounds how many goroutines run one query's shards (the
	// calling goroutine counts as one) and the batch-insert pool
	// (<= 0 selects GOMAXPROCS; always clamped to the shard count).
	Workers int
	// Segment configures every shard. The repetition engines are built
	// once from its Params and every shard runs on them, so a request's
	// filter sets are computed once and shared by every shard (see
	// segment.Plan), and shard placement never changes results.
	Segment segment.Config
	// WALDir, when non-empty, makes the server durable: each shard
	// journals to a write-ahead log under WALDir/shard-NNN, New recovers
	// whatever durable state those directories hold, and ReadSnapshot
	// reconciles the snapshot with each shard's log tail. The shard
	// count must not change across runs of the same WALDir (shard
	// placement is an id-hash over the shard count).
	WALDir string
	// WAL tunes the per-shard logs (fsync policy, rotation size).
	WAL wal.Options
	// StorageDir, when non-empty, gives each shard a segment-file
	// directory under StorageDir/shard-NNN: frozen segments persist as
	// mmap-able SKSEG1 files there, New reopens whatever files the
	// directories hold, and segments past the resident budget serve
	// straight from the map. Without WALDir this is persistence of
	// frozen segments only (memtable contents are lost on crash); with
	// WALDir the log replays the unfrozen tail, and the segment files
	// simply live here instead of in the log directory. The shard count
	// must not change across runs of the same StorageDir.
	StorageDir string
	// ResidentBytes, when positive, bounds the heap bytes the shards
	// collectively spend on frozen-segment arenas (split evenly across
	// shards); segments past the budget are demoted to mmap-backed cold
	// serving, newest-first resident. Requires StorageDir (or WALDir —
	// segment files are the demotion target). 0 keeps everything
	// resident.
	ResidentBytes int64
	// CompressPostings writes new segment files with delta+varint
	// compressed posting arenas (smaller files and cold footprint,
	// decode-on-read when serving cold). Readable either way.
	CompressPostings bool
	// MaxInFlight bounds concurrently executing query fan-outs (the
	// admission gate; see admission.go). 0 selects 4×GOMAXPROCS,
	// negative disables admission control entirely.
	MaxInFlight int
	// MaxQueue bounds requests waiting for admission once MaxInFlight
	// fan-outs are executing; beyond it requests fail ErrOverloaded
	// immediately. 0 rejects the moment the in-flight slots are taken,
	// negative selects 4×MaxInFlight.
	MaxQueue int
	// Metrics, when non-nil, instruments the whole stack: the segment
	// and WAL instrument sets are threaded into every shard, fan-out
	// and admission counters are observed by the server, and size
	// gauges over Stats() are registered at construction. One Server
	// per Metrics (the gauges close over the server). Nil disables
	// instrumentation.
	Metrics *Metrics
}

// Server is a sharded segmented index. Safe for concurrent use.
type Server struct {
	shards  []*segment.SegmentedIndex
	eng     *segment.Engines // shared by every shard: one query plan serves all
	workers int
	gate    *gate     // query admission; nil admits everything
	metrics *Metrics  // nil when uninstrumented
	runs    sync.Pool // *fanRun, sized for this server's shards (fanout.go)

	// readOnly marks a replication follower: the HTTP insert/delete
	// endpoints refuse while set (see replica.go). In-process applies
	// stay allowed.
	readOnly atomic.Bool

	// root is where the shards' segment files live (Config.StorageDir,
	// else WALDir; "" when nothing is durable): a durable Load keeps its
	// marker there while it runs.
	root string

	mu   sync.Mutex
	next int64 // next external id
}

// New builds the shards and starts their background workers. With
// Config.WALDir set, each shard opens (or creates) its write-ahead log
// and recovers the durable state it finds — an empty directory yields
// an empty durable server, a directory left by a crashed process
// yields the pre-crash state.
func New(cfg Config) (*Server, error) {
	k := cfg.Shards
	if k == 0 {
		k = 4
	}
	if k < 1 {
		return nil, fmt.Errorf("server: Shards %d must be >= 1", cfg.Shards)
	}
	s := &Server{workers: cfg.Workers, gate: configGate(cfg), metrics: cfg.Metrics, root: storageRoot(cfg)}
	if err := s.configure(&cfg); err != nil {
		return nil, err
	}
	if err := undoPartialLoad(s.root, k); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	for i := 0; i < k; i++ {
		sh, err := newShard(cfg, i)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, sh)
	}
	// With recovery in play the id counter resumes past everything any
	// shard has ever seen (a no-op for fresh shards).
	for _, sh := range s.shards {
		if next := sh.NextID(); next > s.next {
			s.next = next
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.registerServerGauges(s)
	}
	return s, nil
}

// configure threads the server's instruments and its one set of
// repetition engines into the shard config.
func (s *Server) configure(cfg *Config) error {
	if cfg.Metrics != nil {
		cfg.Segment.Metrics = cfg.Metrics.Segment
		cfg.WAL.Metrics = cfg.Metrics.WAL
	}
	eng, err := segment.NewEngines(cfg.Segment)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.eng, cfg.Segment.Engines = eng, eng
	return nil
}

// newShard builds shard i: a bare segmented index with neither WALDir
// nor StorageDir, a storage-opened one with only StorageDir, a
// log-recovered one with WALDir.
func newShard(cfg Config, i int) (*segment.SegmentedIndex, error) {
	seg := shardSegConfig(cfg, i)
	if cfg.WALDir == "" {
		if seg.StorageDir != "" {
			return segment.Open(seg)
		}
		return segment.New(seg)
	}
	log, err := wal.Open(shardWALDir(cfg.WALDir, i), cfg.WAL)
	if err != nil {
		return nil, err
	}
	sh, err := segment.Recover(seg, log)
	if err != nil {
		log.Close()
		return nil, err
	}
	return sh, nil
}

// shardSegConfig specializes the shared segment config for shard i:
// its own storage subdirectory and an even share of the resident
// budget.
func shardSegConfig(cfg Config, i int) segment.Config {
	seg := cfg.Segment
	if cfg.StorageDir != "" {
		seg.StorageDir = shardWALDir(cfg.StorageDir, i)
	}
	if cfg.ResidentBytes > 0 {
		k := cfg.Shards
		if k == 0 {
			k = 4
		}
		seg.ResidentBytes = cfg.ResidentBytes / int64(k)
		if seg.ResidentBytes == 0 {
			seg.ResidentBytes = 1 // a positive budget must stay a bound
		}
	}
	if cfg.CompressPostings {
		seg.CompressPostings = true
	}
	return seg
}

func shardWALDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// storageRoot is the directory the shards' segment files live under:
// each shard's is shardWALDir(storageRoot(cfg), i).
func storageRoot(cfg Config) string {
	if cfg.StorageDir != "" {
		return cfg.StorageDir
	}
	return cfg.WALDir
}

// loadMarker names the file a durable Load keeps under the storage root
// from before the first shard writes its segment until every shard has.
const loadMarker = "load-pending"

// undoPartialLoad runs removeLoad for a durable Load that died with its
// marker still in place, before any shard opens its directory: the
// corpus is then loaded again whole instead of served in part.
func undoPartialLoad(root string, shards int) error {
	if root == "" {
		return nil
	}
	if _, err := os.Stat(filepath.Join(root, loadMarker)); errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	return removeLoad(root, shards)
}

// removeLoad deletes every shard's segment files, then the marker. The
// shards hold a Load's files and nothing else: Load runs only on shards
// Loadable calls empty, no write runs beside it, and a Load that fails
// closes the server before calling removeLoad.
func removeLoad(root string, shards int) error {
	for i := 0; i < shards; i++ {
		if err := segment.RemoveSegFiles(shardWALDir(root, i)); err != nil {
			return err
		}
	}
	return setLoadMarker(root, false)
}

// setLoadMarker creates or removes the (empty) Load marker under root,
// durably: the directory is synced before it returns. Removing a
// missing marker is not an error.
func setLoadMarker(root string, on bool) error {
	marker := filepath.Join(root, loadMarker)
	var err error
	if on {
		if err = os.MkdirAll(root, 0o777); err == nil {
			err = os.WriteFile(marker, nil, 0o666)
		}
	} else if err = os.Remove(marker); errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	if err != nil {
		return err
	}
	d, err := os.Open(root)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close stops every shard's background worker.
func (s *Server) Close() {
	for _, sh := range s.shards {
		sh.Close()
	}
}

// Shards returns the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// shardIndex partitions by id hash. Ids are assigned by a monotone
// counter, so the split-mix finalizer spreads consecutive ids uniformly
// across shards while keeping the mapping computable from the id alone
// (no routing table to persist).
func (s *Server) shardIndex(id int64) int {
	h := uint64(id) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return int(h % uint64(len(s.shards)))
}

func (s *Server) shardOf(id int64) *segment.SegmentedIndex {
	return s.shards[s.shardIndex(id)]
}

// Insert routes v to its id-hash shard and returns the assigned id. A
// collision with an id already present in a shard (possible only after
// restoring a snapshot taken under live writes, where the saved counter
// can trail ids committed to later-dumped shards) burns the id and
// retries with a fresh one.
func (s *Server) Insert(v bitvec.Vector) (int64, error) {
	for {
		s.mu.Lock()
		id := s.next
		s.next++
		s.mu.Unlock()
		err := s.shardOf(id).InsertWithID(id, v)
		if err == nil || errors.Is(err, segment.ErrNotDurable) {
			// A durability failure still applied the insert; hand the id
			// back with the error so the caller can reference it.
			return id, err
		}
		if !errors.Is(err, segment.ErrIDTaken) {
			return 0, err
		}
	}
}

// InsertBatch assigns ids to all vectors up front, then fans the
// per-shard insert streams out over the bounded worker pool. Each
// shard's stream lands as one segment.InsertBatch — with a WAL
// attached, one group-committed append and a single fsync wait per
// shard instead of one per vector. Returns the ids in input order.
func (s *Server) InsertBatch(vs []bitvec.Vector) ([]int64, error) {
	return s.perShard(vs, (*segment.SegmentedIndex).InsertBatch)
}

// Load bulk-loads vs into a server whose shards are all empty: ids are
// assigned and partitioned exactly as InsertBatch does (a fresh
// server's are 0…n−1 in input order), and each shard static-builds its
// share into one frozen segment (segment.Load), the shards in parallel.
// With durable storage every shard has written its segment as a
// checkpoint file when Load returns, and no log record is appended. A
// marker file under the storage root makes that all or nothing. If a
// durable Load fails, it closes the server, so that nothing more lands
// in the shards' directories, and deletes the files it wrote and the
// marker; if the process dies first, or the deletion fails, the next
// New or ReadSnapshot over the same directories deletes them. No write
// may run beside a Load. Returns the ids in input order.
func (s *Server) Load(vs []bitvec.Vector) ([]int64, error) {
	if err := s.Loadable(); err != nil {
		return nil, err
	}
	if s.root == "" {
		return s.perShard(vs, (*segment.SegmentedIndex).Load)
	}
	err := setLoadMarker(s.root, true)
	var ids []int64
	if err == nil {
		ids, err = s.perShard(vs, (*segment.SegmentedIndex).Load)
	}
	if err == nil {
		if err = setLoadMarker(s.root, false); err == nil {
			return ids, nil
		}
	}
	s.Close()
	if rerr := removeLoad(s.root, len(s.shards)); rerr != nil {
		err = errors.Join(err, fmt.Errorf("undoing the load: %w", rerr))
	}
	return nil, fmt.Errorf("server: Load: %w", err)
}

// Loadable reports why Load would refuse the server, nil if it would
// not: some shard holds a slot, a tombstone, or an applied log record
// (segment.Loadable).
func (s *Server) Loadable() error {
	for i, sh := range s.shards {
		if err := sh.Loadable(); err != nil {
			return fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	return nil
}

// perShard assigns the next len(vs) ids, partitions them by shard, and
// runs apply on every shard's part (ids ascending) over the bounded
// worker pool.
func (s *Server) perShard(vs []bitvec.Vector, apply func(*segment.SegmentedIndex, []int64, []bitvec.Vector) error) ([]int64, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	ids := make([]int64, len(vs))
	s.mu.Lock()
	for i := range vs {
		ids[i] = s.next
		s.next++
	}
	s.mu.Unlock()
	k := len(s.shards)
	perShard := make([][]int, k) // indexes into vs, in id order
	for i, id := range ids {
		sh := s.shardIndex(id)
		perShard[sh] = append(perShard[sh], i)
	}
	errs := make([]error, k)
	lsf.ForEachParallel(k, s.workers, func(sh int) {
		idxs := perShard[sh]
		if len(idxs) == 0 {
			return
		}
		bids := make([]int64, len(idxs))
		bvs := make([]bitvec.Vector, len(idxs))
		for j, i := range idxs {
			bids[j], bvs[j] = ids[i], vs[i]
		}
		errs[sh] = apply(s.shards[sh], bids, bvs)
	})
	return ids, errors.Join(errs...)
}

// NotDurableOnly reports whether err consists solely of
// segment.ErrNotDurable wraps: every affected write WAS applied and its
// record reached the kernel — only media durability is unconfirmed.
// Callers use it to keep the assigned ids (retrying would duplicate the
// vectors) instead of failing the whole operation.
func NotDurableOnly(err error) bool {
	if err == nil {
		return false
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range u.Unwrap() {
			if !NotDurableOnly(e) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, segment.ErrNotDurable)
}

// Delete tombstones id in its shard.
func (s *Server) Delete(id int64) bool {
	if id < 0 {
		return false
	}
	return s.shardOf(id).Delete(id)
}

// Stats aggregates shard size reports. The WAL* fields sum the
// per-shard write-ahead logs and stay zero for a non-durable server
// (per-shard detail, including each log's last checkpoint fence, is in
// PerShard[i].WAL).
type Stats struct {
	Shards     int
	Live       int
	Total      int
	Memtable   int
	Flushing   int
	Segments   int
	Freezes    int64
	Compacts   int64
	WALRecords int64
	WALBytes   int64
	// Storage tiering across shards: heap-resident vs mmap-backed cold
	// frozen segments, and the heap bytes the resident ones and the
	// memtables hold (segment.IndexStats.ResidentBytes), the memtables'
	// share apart.
	ResidentSegments int
	ColdSegments     int
	ResidentBytes    int64
	MemtableBytes    int64
	PerShard         []segment.IndexStats
}

// Stats reports aggregated sizes plus the per-shard breakdown.
func (s *Server) Stats() Stats {
	st := Stats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		is := sh.Stats()
		st.Live += is.Live
		st.Total += is.Total
		st.Memtable += is.Memtable
		st.Flushing += is.Flushing
		st.Segments += is.Segments
		st.Freezes += is.Freezes
		st.Compacts += is.Compactions
		st.ResidentSegments += is.ResidentSegments
		st.ColdSegments += is.ColdSegments
		st.ResidentBytes += is.ResidentBytes
		st.MemtableBytes += is.MemtableBytes
		if is.WAL != nil {
			st.WALRecords += is.WAL.Records
			st.WALBytes += is.WAL.Bytes
		}
		st.PerShard = append(st.PerShard, is)
	}
	return st
}

// Flush forces every shard through its freeze queue.
func (s *Server) Flush() {
	lsf.ForEachParallel(len(s.shards), s.workers, func(i int) {
		s.shards[i].Flush()
	})
}

// WaitIdle blocks until no shard has pending background work.
func (s *Server) WaitIdle() {
	for _, sh := range s.shards {
		sh.WaitIdle()
	}
}

// Snapshot format: a header plus each shard's segment snapshot, back to
// back (segment snapshots are self-delimiting, and each carries its
// shard's applied LSN — the replication cursor). The same stream is
// /v1/snapshot's file, -restore's input and a follower's bootstrap.
//
//	magic  [6]byte "SKSRV2"
//	shards uint32
//	next   int64
//	shards × segment snapshot
var srvMagic = [6]byte{'S', 'K', 'S', 'R', 'V', '2'}

// WriteSnapshot serializes all shards. Shards are snapshotted in
// sequence, each under its own read lock, and each carries its applied
// LSN at its own cut; for a cut that is globally consistent with
// respect to writes, pause writers first. Arming
// faultinject.ReplicaSnapshotTruncate fails the write after the header.
func (s *Server) WriteSnapshot(w io.Writer) (int64, error) {
	s.mu.Lock()
	next := s.next
	s.mu.Unlock()
	hdr := make([]byte, 0, 18)
	hdr = append(hdr, srvMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(s.shards)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(next))
	m, err := w.Write(hdr)
	n := int64(m)
	if err == nil {
		err = faultinject.Fire(faultinject.ReplicaSnapshotTruncate)
	}
	if err != nil {
		return n, err
	}
	for i, sh := range s.shards {
		m, err := sh.WriteSnapshot(w)
		n += m
		if err != nil {
			return n, fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	return n, nil
}

// ReadSnapshot reconstructs a Server from a WriteSnapshot stream and
// returns each shard's applied LSN at its cut: the feed position a
// follower resumes from. cfg must carry the same shard count and
// segment Params as the writer. With cfg.WALDir set, each restored
// shard is additionally reconciled with its log tail: records for ids
// the snapshot already contains are skipped, newer inserts and all
// surviving deletes re-apply, and the shard journals its future writes
// to the same log. Snapshot-restored segments have no checkpoint files,
// so the log is authoritative for anything the snapshot predates. Like
// New, it first deletes the files of a durable Load that died part-way.
func ReadSnapshot(r io.Reader, cfg Config) (*Server, []uint64, error) {
	br := bufio.NewReader(r)
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("server: reading magic: %w", err)
	}
	if magic != srvMagic {
		return nil, nil, fmt.Errorf("server: snapshot magic %q, want %q (older snapshot formats are not readable)", magic, srvMagic)
	}
	var shards uint32
	var next uint64
	if err := binary.Read(br, binary.LittleEndian, &shards); err != nil {
		return nil, nil, fmt.Errorf("server: reading header: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &next); err != nil {
		return nil, nil, fmt.Errorf("server: reading header: %w", err)
	}
	k := cfg.Shards
	if k == 0 {
		k = 4
	}
	if int(shards) != k {
		return nil, nil, fmt.Errorf("server: snapshot has %d shards, config %d", shards, k)
	}
	s := &Server{workers: cfg.Workers, gate: configGate(cfg), metrics: cfg.Metrics, root: storageRoot(cfg), next: int64(next)}
	if err := s.configure(&cfg); err != nil {
		return nil, nil, err
	}
	if err := undoPartialLoad(s.root, k); err != nil {
		return nil, nil, fmt.Errorf("server: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	lsns := make([]uint64, k)
	for i := 0; i < k; i++ {
		sh, err := segment.ReadSnapshot(br, shardSegConfig(cfg, i))
		if err != nil {
			return nil, nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, sh)
		lsns[i] = sh.AppliedLSN() // the snapshot's; a WAL attach moves it
		if cfg.WALDir != "" {
			log, err := wal.Open(shardWALDir(cfg.WALDir, i), cfg.WAL)
			if err != nil {
				return nil, nil, fmt.Errorf("server: shard %d: %w", i, err)
			}
			if err := sh.RecoverWAL(log); err != nil {
				log.Close()
				return nil, nil, fmt.Errorf("server: shard %d: %w", i, err)
			}
		}
	}
	// The header counter was captured before the shards were dumped; a
	// snapshot taken under live writes can therefore contain ids at or
	// above it. Re-seed from the shard high-water marks so fresh inserts
	// never collide.
	for _, sh := range s.shards {
		if next := sh.NextID(); next > s.next {
			s.next = next
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.registerServerGauges(s)
	}
	ok = true
	return s, lsns, nil
}
