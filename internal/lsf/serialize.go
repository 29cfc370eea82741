package lsf

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"skewsim/internal/bitvec"
)

// Serialization of the inverted filter index. The engine (hash seeds,
// thresholds) is NOT serialized — it is deterministic given its build
// parameters, which the caller owns; WriteTo stores only the bucket
// contents. Format (all little-endian):
//
//	magic   [6]byte  "SKLSF1"
//	total   uint64   total filters
//	trunc   uint64   truncated vector count
//	buckets uint64   number of buckets
//	repeat buckets times:
//	  keyLen uint32, key bytes, idCount uint32, ids []int32
//
// Buckets are written in sorted key order so output is deterministic.

var lsfMagic = [6]byte{'S', 'K', 'L', 'S', 'F', '1'}

// WriteTo serializes the index buckets. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(lsfMagic); err != nil {
		return n, err
	}
	if err := write(uint64(ix.totalFilters)); err != nil {
		return n, err
	}
	if err := write(uint64(ix.truncatedCount)); err != nil {
		return n, err
	}
	if err := write(uint64(len(ix.pathSpans))); err != nil {
		return n, err
	}
	// Dump buckets in sorted PathKey order so output stays deterministic
	// (and identical to the pre-freeze and pre-hash-bucket formats). Both
	// the keys and the posting lists serialize straight out of the frozen
	// arenas; only the sort permutation is materialized here.
	type entry struct {
		key string
		ids []int32
	}
	entries := make([]entry, 0, len(ix.pathSpans))
	for b := range ix.pathSpans {
		b := int32(b)
		var ids []int32
		if ix.cold != nil {
			// Cold postings decode per bucket; entries outlive the loop, so
			// each gets its own slice rather than a shared scratch.
			var err error
			if ids, err = ix.appendColdBucket(nil, b); err != nil {
				panic(err) // unreachable: validated at open
			}
		} else {
			ids = ix.bucketIDs(b)
		}
		entries = append(entries, entry{key: PathKey(ix.bucketPath(b)), ids: ids})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	for _, e := range entries {
		if err := write(uint32(len(e.key))); err != nil {
			return n, err
		}
		if _, err := bw.WriteString(e.key); err != nil {
			return n, err
		}
		n += int64(len(e.key))
		if err := write(uint32(len(e.ids))); err != nil {
			return n, err
		}
		if err := write(e.ids); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadIndexFrom reconstructs an index from a stream produced by WriteTo.
// The caller supplies the engine (rebuilt with the original parameters —
// queries only match if the hash seeds are identical) and the data slice
// the buckets refer to. All ids are validated against len(data).
func ReadIndexFrom(r io.Reader, engine *Engine, data []bitvec.Vector) (*Index, error) {
	if engine == nil {
		return nil, errors.New("lsf: nil engine")
	}
	br := bufio.NewReader(r)
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("lsf: reading magic: %w", err)
	}
	if magic != lsfMagic {
		return nil, fmt.Errorf("lsf: bad magic %q", magic)
	}
	var total, trunc, buckets uint64
	for _, v := range []*uint64{&total, &trunc, &buckets} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("lsf: reading header: %w", err)
		}
	}
	const maxReasonable = 1 << 40
	if total > maxReasonable || buckets > maxReasonable {
		return nil, fmt.Errorf("lsf: implausible header (total=%d buckets=%d)", total, buckets)
	}
	bld := NewBuilder(engine)
	bld.AddTruncated(int(trunc))
	sum := uint64(0)
	for b := uint64(0); b < buckets; b++ {
		var keyLen uint32
		if err := binary.Read(br, binary.LittleEndian, &keyLen); err != nil {
			return nil, fmt.Errorf("lsf: bucket %d key length: %w", b, err)
		}
		if keyLen == 0 || keyLen > 1<<16 || keyLen%4 != 0 {
			return nil, fmt.Errorf("lsf: bucket %d implausible key length %d", b, keyLen)
		}
		key := make([]byte, keyLen)
		if _, err := io.ReadFull(br, key); err != nil {
			return nil, fmt.Errorf("lsf: bucket %d key: %w", b, err)
		}
		var idCount uint32
		if err := binary.Read(br, binary.LittleEndian, &idCount); err != nil {
			return nil, fmt.Errorf("lsf: bucket %d id count: %w", b, err)
		}
		if uint64(idCount) > total {
			return nil, fmt.Errorf("lsf: bucket %d id count %d exceeds total %d", b, idCount, total)
		}
		// Read posting lists in bounded chunks: a corrupt header cannot
		// force a single giant allocation before the stream runs dry.
		ids := make([]int32, 0, min(idCount, 1<<16))
		var chunk [1 << 12]int32
		for remaining := idCount; remaining > 0; {
			c := chunk[:min(remaining, uint32(len(chunk)))]
			if err := binary.Read(br, binary.LittleEndian, c); err != nil {
				return nil, fmt.Errorf("lsf: bucket %d ids: %w", b, err)
			}
			ids = append(ids, c...)
			remaining -= uint32(len(c))
		}
		for _, id := range ids {
			if id < 0 || int(id) >= len(data) {
				return nil, fmt.Errorf("lsf: bucket %d references vector %d outside dataset of %d", b, id, len(data))
			}
		}
		sum += uint64(idCount)
		path := pathFromKey(key)
		bld.AddBucket(HashPath(path), path, ids)
	}
	if sum != total {
		return nil, fmt.Errorf("lsf: bucket ids sum to %d, header claims %d", sum, total)
	}
	return bld.Freeze(data), nil
}

// pathFromKey decodes a PathKey byte string back into its element path.
func pathFromKey(key []byte) []uint32 {
	path := make([]uint32, len(key)/4)
	for k := range path {
		path[k] = uint32(key[4*k])<<24 | uint32(key[4*k+1])<<16 |
			uint32(key[4*k+2])<<8 | uint32(key[4*k+3])
	}
	return path
}
