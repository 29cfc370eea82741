package lsf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"unsafe"

	"skewsim/internal/bitvec"
)

// Relocatable frozen-index blob — the per-repetition payload of the
// SKSEG1 segment container (internal/segment). Unlike WriteTo (the
// bucket dump, which replays through the builder), this format stores
// the frozen arenas verbatim, so an open is either zero-copy (the
// arenas become views into a read-only mapping) or one flat decode —
// never a rebuild. Layout, all little-endian, blob offset 0 assumed
// 8-aligned by the container:
//
//	header (64 bytes):
//	  nb        uint32  buckets
//	  tableLen  uint32  key-table slots (power of two, >= 2*nb)
//	  nElems    uint32  path element arena length
//	  nIDs      uint32  logical posting count (idOff[nb])
//	  flags     uint32  bit0: postings are delta+varint compressed
//	  blobLen   uint32  compressed posting bytes (0 when uncompressed)
//	  total     uint64  TotalFilters
//	  trunc     uint64  Truncated
//	  reserved  to 64 bytes, zero
//	sections, in order, each padded to 8 bytes:
//	  tableKeys [tableLen]uint64
//	  tableIdx  [tableLen]int32
//	  pathSpans [nb]{Off, Len uint32}
//	  idOff     [nb+1]uint32
//	  pathElems [nElems]uint32
//	  postings  ids [nIDs]int32                      (flags bit0 clear)
//	            compOff [nb+1]uint32 + blob [blobLen] (flags bit0 set)
//
// Integrity is the container's job (each section of the container is
// CRC-32C framed via dataio); this layer validates structure — table
// load factor, span bounds, CSR monotonicity, id ranges, and a full
// decode pass over compressed postings — so a blob that passes
// OpenFrozenBytes can be traversed without further checks.

const (
	frozenHeaderLen = 64
	// frozenCompressed marks the posting section as delta+varint blocks.
	frozenCompressed = 1 << 0
)

// hostLittleEndian selects the zero-copy paths: arena views into a
// blob on open, arenas handed to the writer as they are on encode.
// Tests clear it to run the portable (big-endian host) paths.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ErrFrozenBlob reports a structurally invalid frozen-index blob.
var ErrFrozenBlob = errors.New("lsf: invalid frozen index blob")

func pad8(n int) int { return (n + 7) &^ 7 }

// coldPostings is the decode-on-read posting store of a compressed
// frozen index: per-bucket byte spans into one varint blob. When it is
// non-nil, Index.ids is nil and every posting read decodes.
type coldPostings struct {
	compOff []uint32 // per bucket: byte offset into blob; len nb+1
	blob    []byte
	maxID   int32 // len(data) at open time, re-checked on decode
}

// ColdPostings reports whether posting lists decode on read (the
// compressed cold tier) rather than being served as arena views.
func (ix *Index) ColdPostings() bool { return ix.cold != nil }

// ResidentBytes is the heap footprint of the index's arenas in their
// resident (decoded, uncompressed) form — the unit the segment tier
// budget is accounted in. For a cold or compressed index it reports
// what promotion WOULD cost, not current usage.
func (ix *Index) ResidentBytes() int64 {
	n := int64(len(ix.tableKeys))*8 + int64(len(ix.tableIdx))*4 +
		int64(len(ix.pathSpans))*8 + int64(len(ix.pathElems))*4 +
		int64(len(ix.idOff))*4
	if ix.cold != nil {
		if nb := len(ix.pathSpans); nb > 0 {
			n += int64(ix.idOff[nb]) * 4
		}
	} else {
		n += int64(len(ix.ids)) * 4
	}
	return n
}

// ForEachBucketHash visits every bucket's path-hash key, in key-table
// slot order. The segment layer builds its per-segment bloom filters
// from these without re-hashing any path.
func (ix *Index) ForEachBucketHash(fn func(h uint64)) {
	for slot, b := range ix.tableIdx {
		if b >= 0 {
			fn(ix.tableKeys[slot])
		}
	}
}

// frozenScratch bounds the encoder's staging buffer: the varint
// postings and, on big-endian hosts, the arenas are encoded into it and
// written out whenever it fills, so encoding costs O(1) heap whatever
// the index size.
const frozenScratch = 64 << 10

// WriteFrozen streams the relocatable frozen-blob encoding of the index
// to w and returns the bytes written. Sections are 8-aligned relative
// to the blob start, which the caller places at an 8-aligned offset.
// compress selects the delta+varint posting encoding. On little-endian
// hosts each arena is written straight from its backing array; w must
// not retain the slices it is handed (the io.Writer contract). The heap
// cost is the compressed postings' offset table, one frozenScratch
// buffer, and for a cold source one bucket's decode buffer.
func (ix *Index) WriteFrozen(w io.Writer, compress bool) (int64, error) {
	nb := len(ix.pathSpans)
	fw := &frozenWriter{w: w}
	var buf []int32 // decode buffer for a cold source's buckets
	var compOff []uint32
	flags := uint32(0)
	if compress {
		// Sizing pass: the blob length heads the blob and the offsets
		// precede the postings, so both are known before a byte is
		// encoded.
		flags |= frozenCompressed
		compOff = make([]uint32, nb+1)
		for b := 0; b < nb; b++ {
			compOff[b+1] = compOff[b] + uint32(postingsLen(ix.bucketPostings(int32(b), &buf)))
		}
	}
	var nIDs uint32
	if nb > 0 {
		nIDs = ix.idOff[nb]
	}
	var hdr [frozenHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], uint32(nb))
	le.PutUint32(hdr[4:], uint32(len(ix.tableIdx)))
	le.PutUint32(hdr[8:], uint32(len(ix.pathElems)))
	le.PutUint32(hdr[12:], nIDs)
	le.PutUint32(hdr[16:], flags)
	if compress {
		le.PutUint32(hdr[20:], compOff[nb])
	}
	le.PutUint64(hdr[24:], uint64(ix.totalFilters))
	le.PutUint64(hdr[32:], uint64(ix.truncatedCount))
	fw.write(hdr[:])

	fw.u64s(ix.tableKeys)
	fw.u32s(i32Words(ix.tableIdx))
	fw.pad()
	fw.u32s(spanWords(ix.pathSpans))
	fw.u32s(ix.idOff)
	fw.pad()
	fw.u32s(ix.pathElems)
	fw.pad()
	switch {
	case compress:
		fw.u32s(compOff)
		fw.pad()
		b := fw.scratch[:0]
		for bkt := 0; bkt < nb; bkt++ {
			if b = AppendPostings(b, ix.bucketPostings(int32(bkt), &buf)); len(b) >= frozenScratch {
				fw.write(b)
				b = b[:0]
			}
		}
		fw.write(b)
		fw.scratch = b[:0]
	case ix.cold == nil:
		fw.u32s(i32Words(ix.ids))
	default:
		// Uncompressed encoding of a cold source: stream each bucket
		// through the decoder.
		for bkt := 0; bkt < nb; bkt++ {
			fw.u32s(i32Words(ix.bucketPostings(int32(bkt), &buf)))
		}
	}
	fw.pad()
	return fw.n, fw.err
}

// bucketPostings returns bucket b's posting list: an arena view on a
// resident index, the list decoded into *buf on a cold one.
func (ix *Index) bucketPostings(b int32, buf *[]int32) []int32 {
	if ix.cold == nil {
		return ix.bucketIDs(b)
	}
	ids, err := ix.appendColdBucket((*buf)[:0], b)
	if err != nil {
		panic(err) // unreachable: cold blobs are validated at open
	}
	*buf = ids
	return ids
}

// frozenWriter is WriteFrozen's output side: it counts bytes for the
// section padding and keeps the first write error, after which every
// write is a no-op.
type frozenWriter struct {
	w       io.Writer
	n       int64
	err     error
	scratch []byte
}

func (fw *frozenWriter) write(p []byte) {
	if fw.err != nil || len(p) == 0 {
		return
	}
	k, err := fw.w.Write(p)
	fw.n += int64(k)
	fw.err = err
}

// pad zero-fills to the next 8-byte boundary of the blob.
func (fw *frozenWriter) pad() {
	var zero [8]byte
	fw.write(zero[:(8-fw.n%8)%8])
}

// u32s writes v as little-endian words: zero-copy from v's backing
// array on a little-endian host, through the scratch buffer otherwise.
func (fw *frozenWriter) u32s(v []uint32) {
	if hostLittleEndian {
		fw.write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v)))
		return
	}
	for len(v) > 0 {
		k := min(len(v), frozenScratch/4)
		b := fw.scratch[:0]
		for _, x := range v[:k] {
			b = binary.LittleEndian.AppendUint32(b, x)
		}
		fw.write(b)
		fw.scratch = b[:0]
		v = v[k:]
	}
}

// u64s is u32s for 64-bit words.
func (fw *frozenWriter) u64s(v []uint64) {
	if hostLittleEndian {
		fw.write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v)))
		return
	}
	for len(v) > 0 {
		k := min(len(v), frozenScratch/8)
		b := fw.scratch[:0]
		for _, x := range v[:k] {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		fw.write(b)
		fw.scratch = b[:0]
		v = v[k:]
	}
}

// i32Words and spanWords reinterpret arenas as the uint32 words they
// encode to (a Span is its Off word, then its Len word).
func i32Words(v []int32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

func spanWords(v []Span) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(v))), 2*len(v))
}

// frozenReader walks a blob's sections, validating bounds as it goes.
type frozenReader struct {
	b   []byte
	off int
}

func (r *frozenReader) section(elemSize, count int) ([]byte, error) {
	n := elemSize * count
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("%w: section of %d bytes at offset %d exceeds blob of %d",
			ErrFrozenBlob, n, r.off, len(r.b))
	}
	s := r.b[r.off : r.off+n : r.off+n]
	r.off = pad8(r.off + n)
	return s, nil
}

// OpenFrozenBytes reconstructs a frozen index from a WriteFrozen
// blob. With zeroCopy set (and a little-endian host) the arenas are
// unsafe views into b — b must stay immutable and mapped for the life
// of the index; otherwise the arenas are decoded onto the heap and b
// may be released. Compressed postings stay compressed under zeroCopy
// (decode-on-read) and are fully decoded otherwise.
//
// engine may be nil for structural validation and bucket enumeration
// (ForEachBucket, WriteTo); queries require the engine the index was
// built with. data is the local vector table posting ids refer to; all
// ids are validated against len(data).
func OpenFrozenBytes(b []byte, engine *Engine, data []bitvec.Vector, zeroCopy bool) (*Index, error) {
	if len(b) < frozenHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrFrozenBlob, len(b))
	}
	le := binary.LittleEndian
	nb := int(le.Uint32(b[0:]))
	tableLen := int(le.Uint32(b[4:]))
	nElems := int(le.Uint32(b[8:]))
	nIDs := int(le.Uint32(b[12:]))
	flags := le.Uint32(b[16:])
	blobLen := int(le.Uint32(b[20:]))
	total := le.Uint64(b[24:])
	trunc := le.Uint64(b[32:])
	compressed := flags&frozenCompressed != 0

	// Structural sanity before any sizing math: the table must be a
	// power of two at load factor <= 1/2 (the linear probe terminates
	// only while empty slots exist), and every count must fit the blob.
	if tableLen < 4 || tableLen&(tableLen-1) != 0 || nb > tableLen/2 {
		return nil, fmt.Errorf("%w: %d buckets in a key table of %d slots", ErrFrozenBlob, nb, tableLen)
	}
	if flags&^uint32(frozenCompressed) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrFrozenBlob, flags)
	}
	if !compressed && blobLen != 0 {
		return nil, fmt.Errorf("%w: uncompressed postings with blob length %d", ErrFrozenBlob, blobLen)
	}
	if total > math.MaxInt64 || trunc > math.MaxInt64 {
		return nil, fmt.Errorf("%w: implausible stats", ErrFrozenBlob)
	}

	r := &frozenReader{b: b, off: frozenHeaderLen}
	keysB, err := r.section(8, tableLen)
	if err != nil {
		return nil, err
	}
	idxB, err := r.section(4, tableLen)
	if err != nil {
		return nil, err
	}
	spansB, err := r.section(8, nb)
	if err != nil {
		return nil, err
	}
	offB, err := r.section(4, nb+1)
	if err != nil {
		return nil, err
	}
	elemsB, err := r.section(4, nElems)
	if err != nil {
		return nil, err
	}
	var idsB, compOffB, blobB []byte
	if compressed {
		if compOffB, err = r.section(4, nb+1); err != nil {
			return nil, err
		}
		if blobB, err = r.section(1, blobLen); err != nil {
			return nil, err
		}
	} else {
		if idsB, err = r.section(4, nIDs); err != nil {
			return nil, err
		}
	}
	// Exact-length check: the sections (padded) must consume the whole
	// blob, so truncated padding and trailing garbage are both rejected.
	if r.off != len(b) {
		return nil, fmt.Errorf("%w: blob of %d bytes, sections end at %d", ErrFrozenBlob, len(b), r.off)
	}

	ix := &Index{
		engine:         engine,
		data:           data,
		tableMask:      uint64(tableLen - 1),
		totalFilters:   int(total),
		truncatedCount: int(trunc),
	}
	if zeroCopy && hostLittleEndian {
		ix.tableKeys = viewU64(keysB)
		ix.tableIdx = viewI32(idxB)
		ix.pathSpans = viewSpans(spansB)
		ix.idOff = viewU32(offB)
		ix.pathElems = viewU32(elemsB)
		if compressed {
			ix.cold = &coldPostings{compOff: viewU32(compOffB), blob: blobB, maxID: int32(len(data))}
		} else {
			ix.ids = viewI32(idsB)
		}
	} else {
		ix.tableKeys = decodeU64(keysB)
		ix.tableIdx = decodeI32(idxB)
		ix.pathSpans = decodeSpans(spansB)
		ix.idOff = decodeU32(offB)
		ix.pathElems = decodeU32(elemsB)
		if !compressed {
			ix.ids = decodeI32(idsB)
		}
	}
	if err := ix.validateFrozen(nIDs, len(data)); err != nil {
		return nil, err
	}
	if compressed {
		if err := validateCompressed(ix.idOff, decodeOrView(compOffB, zeroCopy), blobB, len(data)); err != nil {
			return nil, err
		}
		if !zeroCopy || !hostLittleEndian {
			// Resident open: decode the whole posting arena up front so
			// serving pays no per-read decode.
			ids := make([]int32, 0, nIDs)
			compOff := decodeOrView(compOffB, zeroCopy)
			for bkt := 0; bkt < nb; bkt++ {
				span := blobB[compOff[bkt]:compOff[bkt+1]]
				count := int(ix.idOff[bkt+1] - ix.idOff[bkt])
				if ids, err = DecodePostings(ids, span, count, int32(len(data))); err != nil {
					return nil, err
				}
			}
			ix.ids = ids
		}
	}
	return ix, nil
}

// decodeOrView picks the cheap path for a uint32 section that is only
// read during validation and resident decode.
func decodeOrView(b []byte, zeroCopy bool) []uint32 {
	if zeroCopy && hostLittleEndian {
		return viewU32(b)
	}
	return decodeU32(b)
}

// validateFrozen checks the invariants traversal relies on, so a blob
// that opens cleanly can be walked with no per-access checks.
func (ix *Index) validateFrozen(nIDs, nData int) error {
	nb := len(ix.pathSpans)
	for _, bkt := range ix.tableIdx {
		if bkt < -1 || int(bkt) >= nb {
			return fmt.Errorf("%w: table slot references bucket %d of %d", ErrFrozenBlob, bkt, nb)
		}
	}
	for b, s := range ix.pathSpans {
		if uint64(s.Off)+uint64(s.Len) > uint64(len(ix.pathElems)) {
			return fmt.Errorf("%w: bucket %d path span [%d,+%d) exceeds arena of %d",
				ErrFrozenBlob, b, s.Off, s.Len, len(ix.pathElems))
		}
	}
	if ix.idOff[0] != 0 {
		return fmt.Errorf("%w: idOff[0] = %d", ErrFrozenBlob, ix.idOff[0])
	}
	for b := 0; b < nb; b++ {
		if ix.idOff[b+1] < ix.idOff[b] {
			return fmt.Errorf("%w: idOff not monotonic at bucket %d", ErrFrozenBlob, b)
		}
	}
	if int(ix.idOff[nb]) != nIDs {
		return fmt.Errorf("%w: idOff[%d] = %d, header claims %d postings", ErrFrozenBlob, nb, ix.idOff[nb], nIDs)
	}
	for _, id := range ix.ids {
		if id < 0 || int(id) >= nData {
			return fmt.Errorf("%w: posting id %d outside dataset of %d", ErrFrozenBlob, id, nData)
		}
	}
	return nil
}

// validateCompressed decodes every bucket once (into one reused
// scratch) so decode-on-read never fails later.
func validateCompressed(idOff, compOff []uint32, blob []byte, nData int) error {
	nb := len(idOff) - 1
	if compOff[0] != 0 || int(compOff[nb]) != len(blob) {
		return fmt.Errorf("%w: compressed spans cover [%d, %d) of a blob of %d",
			ErrFrozenBlob, compOff[0], compOff[nb], len(blob))
	}
	var scratch []int32
	for b := 0; b < nb; b++ {
		if compOff[b+1] < compOff[b] || int(compOff[b+1]) > len(blob) {
			return fmt.Errorf("%w: compressed span not monotonic at bucket %d", ErrFrozenBlob, b)
		}
		count := int(idOff[b+1] - idOff[b])
		var err error
		scratch, err = DecodePostings(scratch[:0], blob[compOff[b]:compOff[b+1]], count, int32(nData))
		if err != nil {
			return err
		}
	}
	return nil
}

// bucketOf maps a posting ref's logical offset back to its bucket:
// the unique b with idOff[b] <= off < idOff[b+1] (refs have Len > 0).
func (ix *Index) bucketOf(off uint32) int32 {
	nb := len(ix.pathSpans)
	return int32(sort.Search(nb, func(b int) bool { return ix.idOff[b+1] > off }))
}

// appendColdBucket decodes bucket b's compressed posting list into dst.
func (ix *Index) appendColdBucket(dst []int32, b int32) ([]int32, error) {
	c := ix.cold
	count := int(ix.idOff[b+1] - ix.idOff[b])
	return DecodePostings(dst, c.blob[c.compOff[b]:c.compOff[b+1]], count, c.maxID)
}

// AppendRefIDs appends the posting list r resolves to onto dst: a copy
// of the arena span on a resident index, a decode on a cold one. Use
// RefIDsBuf when a view (no copy) is acceptable for resident indexes.
func (ix *Index) AppendRefIDs(dst []int32, r PostingRef) []int32 {
	if ix.cold == nil {
		return append(dst, ix.ids[r.Off:r.Off+r.Len]...)
	}
	out, err := ix.appendColdBucket(dst, ix.bucketOf(r.Off))
	if err != nil {
		panic(err) // unreachable: validated at open
	}
	return out
}

// RefIDsBuf returns the posting list r resolves to: a direct arena view
// on a resident index (buf untouched), or the list decoded into *buf on
// a cold one. The returned slice is valid until the next call that
// reuses buf.
func (ix *Index) RefIDsBuf(r PostingRef, buf *[]int32) []int32 {
	if ix.cold == nil {
		return ix.ids[r.Off : r.Off+r.Len]
	}
	*buf = ix.AppendRefIDs((*buf)[:0], r)
	return *buf
}

// Unsafe little-endian views: reinterpret a byte section as its typed
// arena with zero copies. Sections are 8-aligned relative to the blob,
// and the segment container 8-aligns blobs within the (page-aligned)
// mapping, so alignment holds.

func viewU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func viewU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewSpans(b []byte) []Span {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*Span)(unsafe.Pointer(&b[0])), len(b)/8)
}

// Heap decodes for the portable (big-endian or copying) open path.

func decodeU64(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func decodeU32(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func decodeI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func decodeSpans(b []byte) []Span {
	out := make([]Span, len(b)/8)
	for i := range out {
		out[i] = Span{
			Off: binary.LittleEndian.Uint32(b[8*i:]),
			Len: binary.LittleEndian.Uint32(b[8*i+4:]),
		}
	}
	return out
}
