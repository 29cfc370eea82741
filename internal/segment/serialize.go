package segment

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"skewsim/internal/bitvec"
	"skewsim/internal/dataio"
)

// Snapshot format: a frozen segment travels as the same SKSEG1
// container a checkpoint file holds (storage.go), so restore is a
// checksum pass and zero-copy views, not a rebuild. The engines are
// not serialized (they are deterministic given Config.Params, which
// the caller owns); memtable vectors are stored raw and re-inserted on
// restore, which recomputes their filters deterministically. All
// little-endian:
//
//	magic    [6]byte "SKSNP2"
//	reps     uint32  (validated against Config.Params on restore)
//	nextAuto int64   (auto-id high-water mark)
//	lsn      uint64  (applied WAL LSN at the cut: the replication cursor)
//	dead     uint32, dead × int64 (every tombstoned id, once)
//	segCount uint32
//	segCount × segment: len uint64, SKSEG1 container [len]byte
//	  (plain postings, empty dead section)
//	memCount uint32  (memtable vectors: flushing, then active)
//	memCount × vector: ext int64, nbits uint32, bits [nbits]uint32
var snapMagic = [6]byte{'S', 'K', 'S', 'N', 'P', '2'}

// WriteSnapshot serializes the index under the read lock: one
// consistent cut, concurrent with queries, blocking writers for the
// duration. Each segment's container is streamed twice — a checksum
// pass for its header, then the write — since the header leads it.
func (s *SegmentedIndex) WriteSnapshot(w io.Writer) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw) // its first error sticks; Flush returns it
	le := binary.LittleEndian
	hdr := append([]byte(nil), snapMagic[:]...)
	hdr = le.AppendUint32(hdr, uint32(len(s.eng.reps)))
	hdr = le.AppendUint64(hdr, uint64(s.nextAuto))
	hdr = le.AppendUint64(hdr, s.appliedLSN)
	// Recovery can list an id dead twice; the snapshot lists it once.
	dead := make([]int64, 0, len(s.deadExt))
	seen := make(map[int64]bool, len(s.deadExt))
	for _, id := range s.deadExt {
		if !seen[id] {
			seen[id] = true
			dead = append(dead, id)
		}
	}
	hdr = le.AppendUint32(hdr, uint32(len(dead)))
	for _, id := range dead {
		hdr = le.AppendUint64(hdr, uint64(id))
	}
	hdr = le.AppendUint32(hdr, uint32(len(s.segs)))
	bw.Write(hdr)
	buf, noHook := make([]byte, 0, segChunk), func(string) {}
	for _, g := range s.segs {
		dump := s.gatherSegLocked(g, nil)
		sizing := &segFileWriter{buf: buf}
		sizing.Write(make([]byte, segHeaderSpace(len(g.reps))))
		entries := sizing.sections(dump, g.reps, g.bloom, false, noHook)
		bw.Write(le.AppendUint64(nil, uint64(sizing.off)))
		out := &segFileWriter{w: bw, buf: buf}
		out.Write(segFileHeader(entries, len(g.reps), len(dump.exts), 0, false))
		out.Write(make([]byte, segHeaderSpace(len(g.reps))-int(out.off)))
		out.sections(dump, g.reps, g.bloom, false, noHook)
		if out.err != nil {
			return cw.n, out.err
		}
	}
	var mem []int32
	for _, mt := range s.flushing {
		mem = append(mem, mt.slots...)
	}
	mem = append(mem, s.mem.slots...)
	b := le.AppendUint32(hdr[:0], uint32(len(mem)))
	for _, slot := range mem {
		bw.Write(b)
		bits := s.vecs[slot].Bits()
		b = le.AppendUint64(b[:0], uint64(s.ext[slot]))
		b = le.AppendUint32(b, uint32(len(bits)))
		for _, e := range bits {
			b = le.AppendUint32(b, e)
		}
	}
	bw.Write(b)
	err := bw.Flush()
	return cw.n, err
}

// countWriter counts the bytes that reach w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadSnapshot reconstructs an index from a WriteSnapshot stream. cfg
// must carry the same Params the snapshotted index was built with
// (identical seeds — posting lists only mean anything under the same
// filter mappings). Each container is read into one heap buffer,
// validated by parseSegContainer and served zero-copy from it, with
// its bloom filter. The restored index reports the snapshot's applied
// LSN until a WAL attaches, starts its own background worker, and is
// the caller's to Close.
func ReadSnapshot(r io.Reader, cfg Config) (*SegmentedIndex, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.readSnapshot(bufio.NewReader(r)); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *SegmentedIndex) readSnapshot(br *bufio.Reader) error {
	le := binary.LittleEndian
	hdr, err := readN(br, 6+4+8+8+4)
	if err != nil {
		return fmt.Errorf("segment: reading snapshot header: %w", err)
	}
	if [6]byte(hdr) != snapMagic {
		return fmt.Errorf("segment: snapshot magic %q, want %q (older snapshot formats are not readable)", hdr[:6], snapMagic)
	}
	if reps := le.Uint32(hdr[6:]); int(reps) != len(s.eng.reps) {
		return fmt.Errorf("segment: snapshot has %d repetitions, config %d", reps, len(s.eng.reps))
	}
	nextAuto, lsn := int64(le.Uint64(hdr[10:])), le.Uint64(hdr[18:])
	deadB, err := readN(br, 8*uint64(le.Uint32(hdr[26:])))
	if err != nil {
		return fmt.Errorf("segment: reading snapshot dead list: %w", err)
	}
	var segCount uint32
	if err := binary.Read(br, le, &segCount); err != nil {
		return fmt.Errorf("segment: reading snapshot header: %w", err)
	}
	for gi := uint32(0); gi < segCount; gi++ {
		var n uint64
		if err := binary.Read(br, le, &n); err != nil {
			return fmt.Errorf("segment: segment %d length: %w", gi, err)
		}
		b, err := readContainer(br, n)
		if err != nil {
			return fmt.Errorf("segment: segment %d: %w", gi, err)
		}
		c, err := parseSegContainer(b, len(s.eng.reps), true)
		if err == nil && len(c.dead) != 0 {
			err = fmt.Errorf("segment: snapshot container carries %d dead ids", len(c.dead))
		}
		if err == nil {
			err = s.installSeg(c, &frozenSeg{}, true)
		}
		if err != nil {
			return fmt.Errorf("segment: segment %d: %w", gi, err)
		}
	}
	var memCount uint32
	if err := binary.Read(br, le, &memCount); err != nil {
		return fmt.Errorf("segment: memtable header: %w", err)
	}
	for i := uint32(0); i < memCount; i++ {
		vh, err := readN(br, 12)
		if err != nil {
			return fmt.Errorf("segment: memtable vector %d: %w", i, err)
		}
		bitsB, err := readN(br, 4*uint64(le.Uint32(vh[8:])))
		if err != nil {
			return fmt.Errorf("segment: memtable vector %d: %w", i, err)
		}
		bits := make([]uint32, len(bitsB)/4)
		for j := range bits {
			bits[j] = le.Uint32(bitsB[4*j:])
		}
		// New, not FromSorted: a corrupt stream must not break the
		// sorted-set invariant.
		if err := s.InsertWithID(int64(le.Uint64(vh)), bitvec.New(bits...)); err != nil {
			return err
		}
	}
	// Tombstones go last, once every vector they may name is in.
	for j := 0; j < len(deadB); j += 8 {
		s.applyDeadID(int64(le.Uint64(deadB[j:])))
	}
	s.mu.Lock()
	s.nextAuto = max(s.nextAuto, nextAuto)
	s.appliedLSN = lsn
	s.mu.Unlock()
	return nil
}

// readContainer reads one n-byte SKSEG1 container into a single buffer
// of n bytes. Its fixed header and header payload are read first and
// checked against n — the header checksum, and a section table whose
// last section ends exactly at byte n, as a writer leaves it — so a
// corrupt length fails before the allocation, not at the end of the
// stream; parseSegContainer then validates the rest.
func readContainer(r io.Reader, n uint64) ([]byte, error) {
	le := binary.LittleEndian
	if n > 1<<40 {
		return nil, fmt.Errorf("implausible length %d", n)
	}
	if n < segFileFixedHdr+20 {
		return nil, fmt.Errorf("container of %d bytes is shorter than its header", n)
	}
	fixed, err := readN(r, segFileFixedHdr)
	if err != nil {
		return nil, err
	}
	hdrLen := uint64(le.Uint32(fixed[8:]))
	if hdrLen < 20 || hdrLen > n-segFileFixedHdr {
		return nil, fmt.Errorf("header length %d in a container of %d bytes", hdrLen, n)
	}
	payload, err := readN(r, hdrLen)
	if err != nil {
		return nil, err
	}
	if dataio.Checksum(payload) != le.Uint32(fixed[12:]) {
		return nil, errors.New("container header checksum mismatch")
	}
	nsect := uint64(le.Uint32(payload[16:]))
	if hdrLen != 20+segEntryLen*nsect {
		return nil, fmt.Errorf("section table of %d entries in a header of %d bytes", nsect, hdrLen)
	}
	end := segFileFixedHdr + hdrLen
	for i := uint64(0); i < nsect; i++ {
		e := payload[20+segEntryLen*i:]
		off, length := le.Uint64(e[8:]), le.Uint64(e[16:])
		if off > n || length > n-off {
			return nil, fmt.Errorf("section %d spans [%d,+%d) outside a container of %d bytes", i, off, length, n)
		}
		end = max(end, off+length)
	}
	if end != n {
		return nil, fmt.Errorf("sections end at byte %d of a container of %d bytes", end, n)
	}
	b := make([]byte, n)
	copy(b, fixed)
	copy(b[segFileFixedHdr:], payload)
	if _, err := io.ReadFull(r, b[segFileFixedHdr+hdrLen:]); err != nil {
		return nil, err
	}
	return b, nil
}

// readN reads exactly n bytes into one buffer of capacity n, growing it
// geometrically as they arrive, so a corrupt length fails at the end of
// the stream instead of at an allocation.
func readN(r io.Reader, n uint64) ([]byte, error) {
	if n > 1<<40 {
		return nil, fmt.Errorf("implausible length %d", n)
	}
	b := make([]byte, 0, min(n, 1<<20))
	for uint64(len(b)) < n {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, min(n, 2*uint64(cap(b)))), b...)
		}
		k, err := io.ReadFull(r, b[len(b):cap(b)])
		b = b[:len(b)+k]
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}
