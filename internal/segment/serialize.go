package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"skewsim/internal/bitvec"
	"skewsim/internal/lsf"
)

// Snapshot format. The engines are NOT serialized (they are
// deterministic given Config.Params, which the caller owns — the same
// contract as lsf serialization); each frozen segment's buckets
// reuse the lsf bucket dump (lsf.Index.WriteTo / ReadIndexFrom), and
// memtable vectors are stored raw and re-inserted on restore, which
// recomputes their filters deterministically. All little-endian:
//
//	magic    [6]byte "SKSNP1"
//	reps     uint32  (validated against Config.Params on restore)
//	nextAuto int64   (auto-id high-water mark)
//	segCount uint32
//	segCount × segment:
//	  count uint32
//	  count × vector: ext int64, alive uint8, nbits uint32, bits []uint32
//	  reps × lsf bucket dump
//	memCount uint32  (memtable vectors: active + flushing)
//	memCount × vector: ext int64, alive uint8, nbits uint32, bits []uint32
//
// (The magic was "SKSEG1" through PR 9; that name now belongs to the
// on-disk segment container in storage.go. Both ends of the snapshot
// stream — WriteSnapshot and its replication wrapper — live in this
// repository, so the rename is not a wire break.)
var snapMagic = [6]byte{'S', 'K', 'S', 'N', 'P', '1'}

// WriteSnapshot serializes the index under the read lock: one
// consistent cut, concurrent with queries, blocking writers for the
// duration. Tombstoned vectors are stored with a dead flag in both
// sections: segment posting lists reference them by local id, and
// memtable ones must keep their external ids registered so a restored
// index still refuses to resurrect them (the InsertWithID contract).
func (s *SegmentedIndex) WriteSnapshot(w io.Writer) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	writeVec := func(slot int32, withAlive bool) error {
		if err := write(s.ext[slot]); err != nil {
			return err
		}
		if withAlive {
			a := uint8(0)
			if s.alive[slot] {
				a = 1
			}
			if err := write(a); err != nil {
				return err
			}
		}
		bits := s.vecs[slot].Bits()
		if err := write(uint32(len(bits))); err != nil {
			return err
		}
		return write(bits)
	}
	if err := write(snapMagic); err != nil {
		return n, err
	}
	if err := write(uint32(len(s.eng.reps))); err != nil {
		return n, err
	}
	if err := write(s.nextAuto); err != nil {
		return n, err
	}
	if err := write(uint32(len(s.segs))); err != nil {
		return n, err
	}
	for _, g := range s.segs {
		if err := write(uint32(len(g.slots))); err != nil {
			return n, err
		}
		for _, slot := range g.slots {
			if err := writeVec(slot, true); err != nil {
				return n, err
			}
		}
		if err := bw.Flush(); err != nil {
			return n, err
		}
		for _, rep := range g.reps {
			m, err := rep.WriteTo(w)
			n += m
			if err != nil {
				return n, err
			}
		}
	}
	memSlots := make([]int32, 0, len(s.mem.slots))
	for _, mt := range s.flushing {
		memSlots = append(memSlots, mt.slots...)
	}
	memSlots = append(memSlots, s.mem.slots...)
	if err := write(uint32(len(memSlots))); err != nil {
		return n, err
	}
	for _, slot := range memSlots {
		if err := writeVec(slot, true); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadSnapshot reconstructs an index from a WriteSnapshot stream. cfg
// must carry the same Params the snapshotted index was built with
// (identical seeds — posting lists only mean anything under the same
// filter mappings). The restored index starts its own background
// worker; the caller owns Closing it.
func ReadSnapshot(r io.Reader, cfg Config) (*SegmentedIndex, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	br := bufio.NewReader(r)
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("segment: reading magic: %w", err)
	}
	if magic != snapMagic {
		return nil, fmt.Errorf("segment: bad magic %q", magic)
	}
	var reps, segCount uint32
	var nextAuto int64
	if err := binary.Read(br, binary.LittleEndian, &reps); err != nil {
		return nil, fmt.Errorf("segment: reading header: %w", err)
	}
	if int(reps) != len(s.eng.reps) {
		return nil, fmt.Errorf("segment: snapshot has %d repetitions, config %d", reps, len(s.eng.reps))
	}
	if err := binary.Read(br, binary.LittleEndian, &nextAuto); err != nil {
		return nil, fmt.Errorf("segment: reading header: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &segCount); err != nil {
		return nil, fmt.Errorf("segment: reading header: %w", err)
	}
	const maxReasonable = 1 << 24
	if segCount > 1<<20 {
		return nil, fmt.Errorf("segment: implausible segment count %d", segCount)
	}
	readVec := func(withAlive bool) (ext int64, alive bool, v bitvec.Vector, err error) {
		if err = binary.Read(br, binary.LittleEndian, &ext); err != nil {
			return
		}
		alive = true
		if withAlive {
			var a uint8
			if err = binary.Read(br, binary.LittleEndian, &a); err != nil {
				return
			}
			alive = a == 1
		}
		var nbits uint32
		if err = binary.Read(br, binary.LittleEndian, &nbits); err != nil {
			return
		}
		if nbits > maxReasonable {
			err = fmt.Errorf("segment: implausible vector size %d", nbits)
			return
		}
		bits := make([]uint32, nbits)
		if err = binary.Read(br, binary.LittleEndian, bits); err != nil {
			return
		}
		// New (not FromSorted) so a corrupted stream cannot panic; for a
		// faithful stream the bits are already sorted and New is a copy.
		v = bitvec.New(bits...)
		return
	}
	for gi := uint32(0); gi < segCount; gi++ {
		var count uint32
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return nil, fmt.Errorf("segment: segment %d header: %w", gi, err)
		}
		if count > maxReasonable {
			return nil, fmt.Errorf("segment: implausible segment size %d", count)
		}
		seg := &frozenSeg{
			slots: make([]int32, count),
			reps:  make([]*lsf.Index, len(s.eng.reps)),
		}
		data := make([]bitvec.Vector, count)
		for i := uint32(0); i < count; i++ {
			ext, alive, v, err := readVec(true)
			if err != nil {
				return nil, fmt.Errorf("segment: segment %d vector %d: %w", gi, i, err)
			}
			slot, err := s.restoreSlot(ext, alive, v)
			if err != nil {
				return nil, err
			}
			seg.slots[i] = slot
			data[i] = v
		}
		for ri := range seg.reps {
			ix, err := lsf.ReadIndexFrom(br, s.eng.reps[ri], data)
			if err != nil {
				return nil, fmt.Errorf("segment: segment %d repetition %d: %w", gi, ri, err)
			}
			seg.reps[ri] = ix
		}
		s.mu.Lock()
		s.segs = append(s.segs, seg)
		s.wake() // the worker compacts if the snapshot overflows MaxSegments
		s.mu.Unlock()
	}
	var memCount uint32
	if err := binary.Read(br, binary.LittleEndian, &memCount); err != nil {
		return nil, fmt.Errorf("segment: memtable header: %w", err)
	}
	if memCount > maxReasonable {
		return nil, fmt.Errorf("segment: implausible memtable size %d", memCount)
	}
	for i := uint32(0); i < memCount; i++ {
		ext, alive, v, err := readVec(true)
		if err != nil {
			return nil, fmt.Errorf("segment: memtable vector %d: %w", i, err)
		}
		if err := s.InsertWithID(ext, v); err != nil {
			return nil, err
		}
		// Re-insert then tombstone: the id stays registered (never
		// resurrectable), exactly as in the snapshotted index.
		if !alive {
			s.Delete(ext)
		}
	}
	s.mu.Lock()
	if nextAuto > s.nextAuto {
		s.nextAuto = nextAuto
	}
	s.mu.Unlock()
	ok = true
	return s, nil
}

// restoreSlot allocates a slot for a snapshot-restored segment vector
// without going through the memtable (its postings already live in the
// segment being read).
func (s *SegmentedIndex) restoreSlot(ext int64, alive bool, v bitvec.Vector) (int32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, taken := s.slotOf[ext]; taken {
		return 0, fmt.Errorf("segment: snapshot repeats id %d", ext)
	}
	slot := int32(len(s.vecs))
	s.vecs = append(s.vecs, v)
	// The snapshot never stores packed forms (the on-disk format is
	// unchanged); they are rebuilt deterministically slot by slot here.
	s.packed.Append(v)
	s.alive = append(s.alive, alive)
	s.ext = append(s.ext, ext)
	s.slotOf[ext] = slot
	if ext >= s.nextAuto {
		s.nextAuto = ext + 1
	}
	if alive {
		s.live++
	} else {
		// Keep the tombstone registry complete: future WAL checkpoint
		// files must list every dead id so fenced delete records stay
		// recoverable.
		s.deadExt = append(s.deadExt, ext)
	}
	return slot, nil
}
