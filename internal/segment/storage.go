package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/dataio"
	"skewsim/internal/faultinject"
	"skewsim/internal/lsf"
	"skewsim/internal/mmapio"
)

// SKSEG1: the on-disk segment container. One file per frozen segment
// (still named ckpt-<seq>.seg — the recovery machinery and WAL fencing
// of wal.go are unchanged), holding everything needed to serve the
// segment without a rebuild: the vector payloads, the external-id map,
// the global tombstone snapshot, the path-key bloom filter, and one
// relocatable frozen-index blob (lsf.WriteFrozen) per repetition.
// Writing streams each section from its source to the file through one
// 2 MiB chunk buffer, so a checkpoint's heap cost does not grow with
// the segment (writeSegFile). A snapshot carries each of its segments
// as the same container (serialize.go).
// Because the per-repetition blobs store the frozen arenas verbatim,
// opening a file is either zero-copy — the arenas become typed views
// into a read-only mmap, which is how cold segments serve queries —
// or one flat decode for the resident (heap) form.
//
// Layout, all little-endian:
//
//	[0:6]    magic "SKSEG1"
//	[6:8]    version uint16 (= 1)
//	[8:12]   hdrLen  uint32 — header payload bytes
//	[12:16]  hdrCRC  uint32 — CRC-32C of the header payload
//	[16:...] header payload:
//	  flags uint32 (bit0: posting sections are delta+varint compressed)
//	  reps  uint32
//	  count uint32 (vectors)
//	  dead  uint32 (tombstone snapshot length)
//	  nsect uint32 (= 5 + reps)
//	  nsect × section entry {kind u32, ord u32, off u64, len u64, crc u32, aux u32}
//	sections, each at an 8-aligned absolute offset, CRC-32C framed by
//	its table entry:
//	  kind 1 exts    count × int64
//	  kind 2 vecOff  (count+1) × uint32 — CSR offsets into vecBits
//	  kind 3 vecBits uint32 sorted-set elements, all vectors back to back
//	  kind 4 dead    dead × int64
//	  kind 5 bloom   power-of-two × uint64 words (aux = hash count)
//	  kind 6 rep     lsf frozen blob; ord = repetition index
//
// Every section checksum is verified at open (one sequential pass —
// which also faults the mapping in, so first-query latency is paid
// here instead of mid-traversal) and the lsf blobs are structurally
// validated by OpenFrozenBytes, so a file that opens cleanly serves
// with no per-read checks.

const (
	segFileVersion  = 1
	segFileFixedHdr = 16
	segEntryLen     = 32
	// segFlagCompressed mirrors the per-blob compression flag at the
	// container level (informational; the blobs are authoritative).
	segFlagCompressed = 1 << 0

	sectExts    = 1
	sectVecOff  = 2
	sectVecBits = 3
	sectDead    = 4
	sectBloom   = 5
	sectRep     = 6
)

var segFileMagic = [6]byte{'S', 'K', 'S', 'E', 'G', '1'}

func pad8(n int) int { return (n + 7) &^ 7 }

// segChunk is the segment file's write unit: every write(2) but the
// file's last is exactly one chunk at a chunk-aligned offset, and large
// sections are copied through the chunk, never passed through. Writes
// of that shape leave the file in 2 MiB page-cache folios, so a cold
// segment's mapping is PMD-mapped; unaligned large writes split them
// and cost cold queries measurably (DESIGN.md "The SKSEG1 container").
const segChunk = 2 << 20

// segEntry is one section table entry.
type segEntry struct {
	kind, ord, aux uint32
	off, length    int64
	crc            uint32
}

// segFileWriter streams an SKSEG1 container through one segChunk
// buffer, checksumming the open section as it goes. The first error
// sticks: later writes are dropped and the caller sees it when it
// finishes.
type segFileWriter struct {
	w     io.Writer // nil: a checksum-only pass, nothing is written
	seq   uint64    // checkpoint sequence, passed to the fault point; 0 in snapshots
	buf   []byte    // bytes not yet written; len < segChunk between calls
	off   int64     // container offset of the next byte
	crc   uint32    // CRC-32C of the open section up to buf[crcAt:]
	crcAt int
	err   error
}

func (w *segFileWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 && w.err == nil {
		k := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:len(w.buf)+k]
		w.off += int64(k)
		p = p[k:]
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
	}
	if w.err != nil {
		return n - len(p), w.err
	}
	return n, nil
}

// u32 and u64 write one little-endian word.
func (w *segFileWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func (w *segFileWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

// sum folds the buffered bytes of the open section into its checksum.
func (w *segFileWriter) sum() {
	w.crc = dataio.UpdateChecksum(w.crc, w.buf[w.crcAt:])
	w.crcAt = len(w.buf)
}

// flush writes the buffered bytes: a whole chunk, except at the end of
// the container.
func (w *segFileWriter) flush() {
	w.sum()
	if w.err == nil && w.seq != 0 {
		w.err = faultinject.Fire(faultinject.SegmentCheckpointChunk, w.seq, w.off-int64(len(w.buf)))
	}
	if w.err == nil && w.w != nil {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf, w.crcAt = w.buf[:0], 0
}

// section streams one section at the next 8-aligned offset — body
// writes its bytes through w — and returns its table entry.
func (w *segFileWriter) section(kind, ord, aux uint32, body func()) segEntry {
	var zero [8]byte
	w.Write(zero[:pad8(int(w.off))-int(w.off)])
	w.crc, w.crcAt = 0, len(w.buf)
	e := segEntry{kind: kind, ord: ord, aux: aux, off: w.off}
	body()
	w.sum()
	e.length, e.crc = w.off-e.off, w.crc
	return e
}

// segHeaderSpace is the bytes a container with reps repetitions
// reserves for its header, padded to the first section.
func segHeaderSpace(reps int) int { return pad8(segFileFixedHdr + 20 + segEntryLen*(5+reps)) }

// sections streams every section of one segment's container through
// w, which the header space already precedes, and returns the section
// table. Checkpoint files and snapshots both emit through here.
func (w *segFileWriter) sections(dump segDump, reps []*lsf.Index, bloom *bloomFilter, compress bool, hook func(string)) []segEntry {
	entries := make([]segEntry, 0, 5+len(reps))
	entries = append(entries,
		w.section(sectExts, 0, 0, func() {
			for _, ext := range dump.exts {
				w.u64(uint64(ext))
			}
		}),
		w.section(sectVecOff, 0, 0, func() {
			elems := 0
			w.u32(0)
			for _, v := range dump.vecs {
				elems += v.Len()
				w.u32(uint32(elems))
			}
		}),
		w.section(sectVecBits, 0, 0, func() {
			for _, v := range dump.vecs {
				for _, e := range v.Bits() {
					w.u32(e)
				}
			}
		}),
		w.section(sectDead, 0, 0, func() {
			for _, id := range dump.dead {
				w.u64(uint64(id))
			}
		}),
		w.section(sectBloom, 0, bloomHashes, func() {
			for _, word := range bloom.words {
				w.u64(word)
			}
		}))
	for r, rep := range reps {
		// WriteFrozen's error is w's sticky one, checked after the flush.
		entries = append(entries, w.section(sectRep, uint32(r), 0, func() { rep.WriteFrozen(w, compress) }))
		if r == 0 {
			hook("storage-partial")
		}
	}
	w.flush()
	return entries
}

// writeSegFile atomically persists one frozen segment as an SKSEG1
// container and returns its path and size. The file is streamed to a
// temp name — a zeroed placeholder where the header goes, then every
// section straight from its source (the frozen arenas via
// lsf.WriteFrozen), checksummed on the way through one segChunk buffer
// — and the header is written over the placeholder once the section
// table is known. Then fsync, crash-hook, rename into place, fsync the
// directory. The frozen lsf indexes are immutable, so no index lock is
// held during any of this.
func writeSegFile(dir string, seq uint64, dump segDump, reps []*lsf.Index, bloom *bloomFilter, compress bool, hook func(string)) (string, int64, error) {
	if err := faultinject.Fire(faultinject.SegmentCheckpointWrite, seq); err != nil {
		return "", 0, fmt.Errorf("segment: checkpoint: %w", err)
	}
	final := filepath.Join(dir, ckptName(seq))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", 0, fmt.Errorf("segment: checkpoint: %w", err)
	}
	w := &segFileWriter{w: f, seq: seq, buf: make([]byte, 0, segChunk)}
	w.Write(make([]byte, segHeaderSpace(len(reps)))) // the header's placeholder
	entries := w.sections(dump, reps, bloom, compress, hook)
	size := w.off
	if err = w.err; err == nil {
		_, err = f.WriteAt(segFileHeader(entries, len(reps), len(dump.exts), len(dump.dead), compress), 0)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", 0, fmt.Errorf("segment: checkpoint: %w", err)
	}
	hook("storage-tmp")
	if err = os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", 0, fmt.Errorf("segment: checkpoint: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return "", 0, fmt.Errorf("segment: checkpoint: %w", err)
	}
	return final, size, nil
}

// segFileHeader encodes the fixed header and the header payload —
// shape plus section table — that open a segment file.
func segFileHeader(entries []segEntry, reps, count, dead int, compress bool) []byte {
	le := binary.LittleEndian
	flags := uint32(0)
	if compress {
		flags |= segFlagCompressed
	}
	payload := make([]byte, 0, 20+segEntryLen*len(entries))
	payload = le.AppendUint32(payload, flags)
	payload = le.AppendUint32(payload, uint32(reps))
	payload = le.AppendUint32(payload, uint32(count))
	payload = le.AppendUint32(payload, uint32(dead))
	payload = le.AppendUint32(payload, uint32(len(entries)))
	for _, e := range entries {
		payload = le.AppendUint32(payload, e.kind)
		payload = le.AppendUint32(payload, e.ord)
		payload = le.AppendUint64(payload, uint64(e.off))
		payload = le.AppendUint64(payload, uint64(e.length))
		payload = le.AppendUint32(payload, e.crc)
		payload = le.AppendUint32(payload, e.aux)
	}
	hdr := make([]byte, 0, segFileFixedHdr+len(payload))
	hdr = append(hdr, segFileMagic[:]...)
	hdr = le.AppendUint16(hdr, segFileVersion)
	hdr = le.AppendUint32(hdr, uint32(len(payload)))
	hdr = le.AppendUint32(hdr, dataio.Checksum(payload))
	return append(hdr, payload...)
}

// segContainer is a parsed SKSEG1 file. All byte-backed fields
// (repBlobs) are views into the input buffer; exts/dead/vecs/bloom are
// heap-decoded, since they stay resident at every tier.
type segContainer struct {
	flags    uint32
	exts     []int64
	dead     []int64
	vecs     []bitvec.Vector // nil unless decodeVecs
	bloom    *bloomFilter
	repBlobs [][]byte
}

// parseSegContainer validates an SKSEG1 container against b — header,
// section table, every section checksum, structural bounds — without
// touching the lsf blobs' internals (OpenFrozenBytes owns those). It
// never allocates more than O(len(b)), so hostile inputs (the fuzz
// target) fail cheaply. wantReps > 0 requires that repetition count;
// decodeVecs selects decoding the vector payloads (skippable when the
// caller already holds the segment's vectors, i.e. tier moves).
func parseSegContainer(b []byte, wantReps int, decodeVecs bool) (*segContainer, error) {
	le := binary.LittleEndian
	fail := func(format string, args ...interface{}) (*segContainer, error) {
		return nil, fmt.Errorf("segment: invalid segment file: "+format, args...)
	}
	if len(b) < segFileFixedHdr {
		return fail("%d bytes is shorter than the header", len(b))
	}
	if [6]byte(b[0:6]) != segFileMagic {
		return fail("bad magic %q", b[0:6])
	}
	if v := le.Uint16(b[6:]); v != segFileVersion {
		return fail("unsupported version %d", v)
	}
	hdrLen := int(le.Uint32(b[8:]))
	if hdrLen < 20 || hdrLen > len(b)-segFileFixedHdr {
		return fail("header length %d exceeds file of %d", hdrLen, len(b))
	}
	payload := b[segFileFixedHdr : segFileFixedHdr+hdrLen]
	if got, want := dataio.Checksum(payload), le.Uint32(b[12:]); got != want {
		return fail("header checksum mismatch")
	}
	flags := le.Uint32(payload[0:])
	reps := int(le.Uint32(payload[4:]))
	count := int(le.Uint32(payload[8:]))
	dead := int(le.Uint32(payload[12:]))
	nsect := int(le.Uint32(payload[16:]))
	if flags&^uint32(segFlagCompressed) != 0 {
		return fail("unknown flags %#x", flags)
	}
	if reps < 1 || reps > 1024 {
		return fail("implausible repetition count %d", reps)
	}
	if wantReps > 0 && reps != wantReps {
		return fail("file has %d repetitions, config %d", reps, wantReps)
	}
	const maxReasonable = 1 << 24
	if count > maxReasonable || dead > maxReasonable {
		return fail("implausible sizes (count=%d dead=%d)", count, dead)
	}
	if nsect != 5+reps || hdrLen != 20+segEntryLen*nsect {
		return fail("section table of %d entries in a header of %d bytes for %d repetitions", nsect, hdrLen, reps)
	}

	c := &segContainer{flags: flags, repBlobs: make([][]byte, reps)}
	var vecOffB, vecBitsB []byte
	seen := make(map[uint64]bool, nsect)
	for i := 0; i < nsect; i++ {
		e := payload[20+segEntryLen*i:]
		kind := le.Uint32(e[0:])
		ord := le.Uint32(e[4:])
		off := le.Uint64(e[8:])
		length := le.Uint64(e[16:])
		if off%8 != 0 || off > uint64(len(b)) || length > uint64(len(b))-off {
			return fail("section %d spans [%d,+%d) outside file of %d", i, off, length, len(b))
		}
		data := b[off : off+length : off+length]
		if dataio.Checksum(data) != le.Uint32(e[24:]) {
			return fail("section %d (kind %d) checksum mismatch", i, kind)
		}
		key := uint64(kind)<<32 | uint64(ord)
		if seen[key] {
			return fail("duplicate section kind %d ord %d", kind, ord)
		}
		seen[key] = true
		switch kind {
		case sectExts:
			if len(data) != 8*count {
				return fail("exts section of %d bytes for %d vectors", len(data), count)
			}
			c.exts = make([]int64, count)
			for j := range c.exts {
				c.exts[j] = int64(le.Uint64(data[8*j:]))
			}
		case sectVecOff:
			if len(data) != 4*(count+1) {
				return fail("vecOff section of %d bytes for %d vectors", len(data), count)
			}
			vecOffB = data
		case sectVecBits:
			if len(data)%4 != 0 {
				return fail("vecBits section of %d bytes", len(data))
			}
			vecBitsB = data
		case sectDead:
			if len(data) != 8*dead {
				return fail("dead section of %d bytes for %d ids", len(data), dead)
			}
			c.dead = make([]int64, dead)
			for j := range c.dead {
				c.dead[j] = int64(le.Uint64(data[8*j:]))
			}
		case sectBloom:
			words := len(data) / 8
			if len(data)%8 != 0 || words == 0 || words&(words-1) != 0 {
				return fail("bloom section of %d bytes", len(data))
			}
			if aux := le.Uint32(e[28:]); aux != bloomHashes {
				return fail("bloom filter with %d hashes, built with %d", aux, bloomHashes)
			}
			w := make([]uint64, words)
			for j := range w {
				w[j] = le.Uint64(data[8*j:])
			}
			c.bloom = bloomFromWords(w)
		case sectRep:
			if int(ord) >= reps {
				return fail("repetition section %d of %d", ord, reps)
			}
			c.repBlobs[ord] = data
		default:
			return fail("unknown section kind %d", kind)
		}
	}
	if c.exts == nil || vecOffB == nil || vecBitsB == nil || c.bloom == nil || (dead > 0 && c.dead == nil) {
		return fail("missing section")
	}
	for r, blob := range c.repBlobs {
		if blob == nil {
			return fail("missing repetition %d", r)
		}
	}
	// Vector payload structure is validated whether or not the payloads
	// are decoded — tier moves skip the decode, not the checks.
	nElems := len(vecBitsB) / 4
	prev := uint32(0)
	if le.Uint32(vecOffB) != 0 {
		return fail("vector offsets do not start at 0")
	}
	for j := 1; j <= count; j++ {
		o := le.Uint32(vecOffB[4*j:])
		if o < prev || int(o) > nElems {
			return fail("vector offsets not monotonic at %d", j)
		}
		prev = o
	}
	if int(prev) != nElems {
		return fail("vector payloads cover %d of %d elements", prev, nElems)
	}
	if decodeVecs {
		c.vecs = make([]bitvec.Vector, count)
		elems := make([]uint32, nElems)
		for j := range elems {
			elems[j] = le.Uint32(vecBitsB[4*j:])
		}
		for j := 0; j < count; j++ {
			lo, hi := le.Uint32(vecOffB[4*j:]), le.Uint32(vecOffB[4*(j+1):])
			// New, not FromSorted: a stream that passes checksums could
			// still carry unsorted elements; New sorts and dedups.
			c.vecs[j] = bitvec.New(elems[lo:hi]...)
		}
	}
	return c, nil
}

// openSegReps opens every repetition blob of a parsed SKSEG1 container
// as zero-copy cold indexes over data (the segment's local vector
// slice). Used by demotion and the initial cold load.
func (s *SegmentedIndex) openSegReps(c *segContainer, data []bitvec.Vector) ([]*lsf.Index, error) {
	reps := make([]*lsf.Index, len(s.eng.reps))
	for r := range reps {
		ix, err := lsf.OpenFrozenBytes(c.repBlobs[r], s.eng.reps[r], data, true)
		if err != nil {
			return nil, err
		}
		reps[r] = ix
	}
	return reps, nil
}

// loadSegFiles opens every segment file in dir (ascending sequence)
// into s — cold, serving straight from the mappings; the worker's
// retier pass promotes the newest into the resident budget afterwards.
// Returns the highest sequence seen. Vectors whose id is already
// registered reuse their existing slot — the idempotence that makes
// snapshot-plus-tail and crash-repeated freezes safe.
func (s *SegmentedIndex) loadSegFiles(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("segment: %w", err)
	}
	type ckpt struct {
		seq  uint64
		path string
	}
	var files []ckpt
	for _, e := range ents {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, ckptPrefix) {
			continue
		}
		if strings.HasSuffix(name, ckptSuffix+".tmp") {
			// A crash between a segment file's tmp write and its rename
			// left this orphan; the WAL still covers its records.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("segment: malformed checkpoint file name %q", name)
		}
		files = append(files, ckpt{seq, filepath.Join(dir, name)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })
	var maxSeq uint64
	dead := make(map[int64]bool)
	for _, c := range files {
		if err := s.loadSegFile(c.path, c.seq, dead); err != nil {
			return 0, err
		}
		maxSeq = c.seq
	}
	// Apply the union of every file's tombstone list only after all
	// vectors are registered: an id may be listed dead by an older file
	// while its vector arrives with a newer one.
	for id := range dead {
		s.applyDeadID(id)
	}
	return maxSeq, nil
}

// loadSegFile maps one SKSEG1 file and installs it as a cold frozen
// segment, folding its tombstone snapshot into dead.
func (s *SegmentedIndex) loadSegFile(path string, seq uint64, dead map[int64]bool) error {
	m, err := mmapio.Open(path)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	c, err := parseSegContainer(m.Data(), len(s.eng.reps), true)
	if err == nil {
		err = s.installSeg(c, &frozenSeg{walSeq: seq, path: path, mapping: m}, false)
	}
	if err != nil {
		m.Close()
		return fmt.Errorf("segment: %s: %w", filepath.Base(path), err)
	}
	for _, id := range c.dead {
		dead[id] = true
	}
	return nil
}

// installSeg opens a parsed container's repetitions zero-copy over its
// bytes, registers its vectors, and appends it to the segment list as
// seg. A vector whose id is already registered reuses its slot — the
// idempotence that makes snapshot-plus-tail and crash-repeated freezes
// safe — unless strict, which refuses it instead (a snapshot never
// repeats an id). New slots start alive; tombstones are applied by the
// caller once every segment is in.
func (s *SegmentedIndex) installSeg(c *segContainer, seg *frozenSeg, strict bool) error {
	reps, err := s.openSegReps(c, c.vecs)
	if err != nil {
		return err
	}
	seg.reps, seg.bloom, seg.arenaBytes = reps, c.bloom, segArenaBytes(reps)
	seg.slots = make([]int32, len(c.exts))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ext := range c.exts {
		slot, ok := s.slotOf[ext]
		if ok && strict {
			return fmt.Errorf("segment: snapshot repeats id %d", ext)
		}
		if !ok {
			slot = s.allocSlotLocked(ext, c.vecs[i])
		}
		seg.slots[i] = slot
	}
	s.segs = append(s.segs, seg)
	s.wake() // compaction or retier may be due after the load
	return nil
}

// segArenaBytes is the resident heap cost of a segment's posting
// arenas — the unit Config.ResidentBytes budgets.
func segArenaBytes(reps []*lsf.Index) int64 {
	var n int64
	for _, ix := range reps {
		n += ix.ResidentBytes()
	}
	return n
}

// Tiering. The budget policy is newest-resident-first: walking the
// segment list newest to oldest, segments stay resident (heap arenas)
// until their cumulative arena bytes exceed Config.ResidentBytes, and
// everything older serves cold from its mapped file. Segments without
// a file yet (freshly frozen, pre-persist; snapshot restores) are
// always resident and charge the budget. All tier moves run on the
// worker goroutine, which also owns compaction — so a mapping is never
// unmapped while compaction streams from it, and queries are excluded
// by the swap happening under the write lock.

// storageDirLocked resolves where segment files live: the explicit
// Config.StorageDir, else the WAL directory (the pre-PR-10 layout),
// else nowhere (no persistence).
func (s *SegmentedIndex) storageDirLocked() string {
	if s.cfg.StorageDir != "" {
		return s.cfg.StorageDir
	}
	if s.wal != nil {
		return s.wal.Dir()
	}
	return ""
}

// SetResidentBudget replaces the resident-arena byte budget (0 =
// unlimited) and wakes the worker to re-tier. Exposed for operational
// adjustment and the storage tests.
func (s *SegmentedIndex) SetResidentBudget(bytes int64) {
	s.mu.Lock()
	s.cfg.ResidentBytes = bytes
	s.wake()
	s.mu.Unlock()
}

// retierActionLocked returns the next segment whose tier mismatches
// the budget policy, and the direction to move it.
func (s *SegmentedIndex) retierActionLocked() (g *frozenSeg, demote, ok bool) {
	budget := s.cfg.ResidentBytes
	used := int64(0)
	for i := len(s.segs) - 1; i >= 0; i-- {
		g := s.segs[i]
		if g.path == "" || g.tierFailed {
			used += g.arenaBytes
			continue
		}
		wantResident := budget <= 0 || used+g.arenaBytes <= budget
		if wantResident {
			used += g.arenaBytes
		}
		if wantResident == (g.mapping != nil) {
			return g, !wantResident, true
		}
	}
	return nil, false, false
}

func (s *SegmentedIndex) needsRetierLocked() bool {
	_, _, ok := s.retierActionLocked()
	return ok
}

// demoteSeg moves one resident segment to the cold tier: reopen its
// file (full checksum + structural re-validation — bit rot surfaces
// here, not mid-query), build zero-copy indexes over the mapping, and
// swap them in under the write lock. The heap arenas are then
// garbage. Worker goroutine only.
func (s *SegmentedIndex) demoteSeg(g *frozenSeg) {
	m, err := mmapio.Open(g.path)
	var reps []*lsf.Index
	if err == nil {
		var c *segContainer
		c, err = parseSegContainer(m.Data(), len(s.eng.reps), false)
		if err == nil {
			reps, err = s.openSegReps(c, g.reps[0].Data())
		}
	}
	if err != nil {
		if m != nil {
			m.Close()
		}
		// A file that no longer round-trips must not serve; pin the
		// segment resident (its arenas are still correct) and stop
		// retrying — the next compaction rewrites the file.
		s.mu.Lock()
		g.tierFailed = true
		s.wake()
		s.mu.Unlock()
		return
	}
	s.crashHook("tier-demote")
	s.mu.Lock()
	g.reps = reps
	g.mapping = m
	s.wake()
	s.mu.Unlock()
	if mt := s.cfg.Metrics; mt != nil {
		mt.Demotions.Inc()
	}
}

// promoteSeg moves one cold segment back to the resident tier: decode
// the mapped blobs onto the heap (postings decompress here if the file
// is compressed), swap under the write lock, release the mapping.
// Worker goroutine only.
func (s *SegmentedIndex) promoteSeg(g *frozenSeg) {
	t0 := time.Now()
	c, err := parseSegContainer(g.mapping.Data(), len(s.eng.reps), false)
	reps := make([]*lsf.Index, len(s.eng.reps))
	if err == nil {
		data := g.reps[0].Data()
		for r := range reps {
			if reps[r], err = lsf.OpenFrozenBytes(c.repBlobs[r], s.eng.reps[r], data, false); err != nil {
				break
			}
		}
	}
	if err != nil {
		s.mu.Lock()
		g.tierFailed = true // serve on cold, stop flapping
		s.wake()
		s.mu.Unlock()
		return
	}
	s.crashHook("tier-promote")
	s.mu.Lock()
	old := g.mapping
	g.reps = reps
	g.mapping = nil
	s.wake()
	s.mu.Unlock()
	old.Close()
	if mt := s.cfg.Metrics; mt != nil {
		mt.Promotions.Inc()
		mt.DecodeSeconds.ObserveDuration(time.Since(t0))
	}
}

// closeSegFile releases a retired segment's mapping (compaction drops
// its inputs). The caller guarantees no traversal can still reach the
// segment: it was removed from the visible list under the write lock.
func closeSegFile(g *frozenSeg) {
	if g.mapping != nil {
		g.mapping.Close()
		g.mapping = nil
	}
}

// RemoveSegFiles deletes every segment file in dir, and its torn
// temporaries; a missing dir holds none. It undoes a bulk load that
// did not complete across a server's shards, before any index opens
// the directory.
func RemoveSegFiles(dir string) error {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, ckptPrefix) && (strings.HasSuffix(name, ckptSuffix) || strings.HasSuffix(name, ckptSuffix+".tmp")) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("segment: %w", err)
			}
		}
	}
	return syncDir(dir)
}

// Open is New plus a load of the segment files persisted under
// cfg.StorageDir — the durable-segments-without-WAL startup path. The
// directory is created if missing. For WAL-backed indexes use Recover
// instead (it loads the same files via RecoverWAL, plus the log tail);
// do not combine Open with RecoverWAL, or the files would load twice.
func Open(cfg Config) (*SegmentedIndex, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if s.cfg.StorageDir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.cfg.StorageDir, 0o777); err != nil {
		s.Close()
		return nil, fmt.Errorf("segment: %w", err)
	}
	// Pause the worker for the load, like WAL recovery does: a
	// compaction racing the scan could double-handle a segment.
	s.mu.Lock()
	s.recovering = true
	s.mu.Unlock()
	maxSeq, err := s.loadSegFiles(s.cfg.StorageDir)
	s.mu.Lock()
	s.recovering = false
	if maxSeq >= s.segSeq {
		s.segSeq = maxSeq + 1
	}
	s.wake()
	s.mu.Unlock()
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}
