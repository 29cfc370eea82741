package lsf

import (
	"errors"
	"fmt"
	"math/bits"
)

// Posting-list compression: delta + zigzag varint, the cold-tier
// encoding of the SKSEG1 segment format. Posting lists are stored in
// insertion order, which after freeze/compaction is ascending local id,
// so consecutive deltas are small and a list costs ~1 byte per posting
// instead of 4. Zigzag keeps the codec total (any int32 sequence round
// trips), so correctness never depends on the monotonicity holding.
//
// The decoder is blocked: it consumes postingBlock values per inner
// loop with a single slice re-bound per block, so bounds checks and the
// dst append do not dominate the byte-shift work. Hostile inputs error
// out — the caller supplies the exact expected count (from the CSR
// offsets, which the open path has already validated), so a corrupt
// blob can never drive an unbounded allocation: the destination is
// sized before a single byte is parsed.

// postingBlock is the decoder's inner-loop stride.
const postingBlock = 64

// ErrPostingCodec reports a compressed posting span that does not
// decode cleanly: truncated varint, overflow past 32 bits, leftover
// bytes, or a decoded id outside the permitted range.
var ErrPostingCodec = errors.New("lsf: corrupt compressed posting list")

// zigzag folds signed deltas into unsigned varint-friendly form.
func zigzag(v int32) uint32   { return uint32((v << 1) ^ (v >> 31)) }
func unzigzag(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }

// AppendPostings appends the delta+zigzag-varint encoding of ids to dst
// and returns the extended slice. The empty list encodes to nothing.
func AppendPostings(dst []byte, ids []int32) []byte {
	prev := int32(0)
	for _, id := range ids {
		u := zigzag(id - prev)
		prev = id
		for u >= 0x80 {
			dst = append(dst, byte(u)|0x80)
			u >>= 7
		}
		dst = append(dst, byte(u))
	}
	return dst
}

// postingsLen is len(AppendPostings(nil, ids)), computed without
// encoding: the sizing pass of a streamed compressed blob.
func postingsLen(ids []int32) int {
	n, prev := 0, int32(0)
	for _, id := range ids {
		n += (bits.Len32(zigzag(id-prev)|1) + 6) / 7
		prev = id
	}
	return n
}

// DecodePostings appends exactly count ids decoded from src to dst,
// requiring src to be consumed exactly and every id to lie in
// [0, maxID) (maxID <= 0 skips the range check). It is the block
// decoder behind every cold posting read; on any malformed input it
// returns ErrPostingCodec without allocating beyond the count the
// caller asked for.
func DecodePostings(dst []int32, src []byte, count int, maxID int32) ([]int32, error) {
	if count < 0 {
		return dst, fmt.Errorf("%w: negative count %d", ErrPostingCodec, count)
	}
	base := len(dst)
	dst = append(dst, make([]int32, count)...)
	out := dst[base:]
	prev := int32(0)
	pos := 0
	for done := 0; done < count; {
		n := count - done
		if n > postingBlock {
			n = postingBlock
		}
		block := out[done : done+n]
		for i := range block {
			var u uint32
			var shift uint
			for {
				if pos >= len(src) {
					return dst[:base], fmt.Errorf("%w: truncated at posting %d/%d", ErrPostingCodec, done+i, count)
				}
				b := src[pos]
				pos++
				if shift == 28 && b > 0x0f {
					return dst[:base], fmt.Errorf("%w: varint overflows 32 bits", ErrPostingCodec)
				}
				u |= uint32(b&0x7f) << shift
				if b < 0x80 {
					break
				}
				shift += 7
				if shift > 28 {
					return dst[:base], fmt.Errorf("%w: varint overflows 32 bits", ErrPostingCodec)
				}
			}
			prev += unzigzag(u)
			if maxID > 0 && (prev < 0 || prev >= maxID) {
				return dst[:base], fmt.Errorf("%w: id %d outside [0, %d)", ErrPostingCodec, prev, maxID)
			}
			block[i] = prev
		}
		done += n
	}
	if pos != len(src) {
		return dst[:base], fmt.Errorf("%w: %d trailing bytes", ErrPostingCodec, len(src)-pos)
	}
	return dst, nil
}
