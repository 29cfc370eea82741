package dataio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary frame format shared by the durable byte streams (the write-
// ahead log in internal/wal is the primary client): each frame is a
// little-endian header followed by an opaque payload,
//
//	length uint32  payload bytes
//	crc    uint32  CRC-32C (Castagnoli) of the payload
//	payload [length]byte
//
// The CRC covers the payload only; a corrupted length field is caught
// because it either points past the end of the stream (torn tail) or at
// bytes whose checksum cannot match. MaxFramePayload bounds a single
// frame so a corrupted length cannot drive an unbounded allocation.

// MaxFramePayload is the largest payload AppendFrame accepts and
// FrameReader will allocate for. 256 MiB: far above any WAL record
// (the largest is one inserted vector) while still a sane allocation
// bound against corrupt headers.
const MaxFramePayload = 256 << 20

// frameHeaderSize is the fixed length+crc prefix.
const frameHeaderSize = 8

// ErrTornFrame reports a frame that does not decode cleanly: the stream
// ended mid-frame, the length field is implausible, or the checksum
// does not match. At the tail of a crash-interrupted log file this is
// the expected torn-write signature (the caller truncates at the last
// clean frame boundary); anywhere else it means corruption.
var ErrTornFrame = errors.New("dataio: torn or corrupt frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C (Castagnoli) checksum of p — the same
// polynomial the frame format uses, exported so other on-disk layouts
// (the SKSEG1 segment container) checksum their sections consistently
// with the WAL frames.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// UpdateChecksum extends a running Checksum with p: Checksum(a+b) ==
// UpdateChecksum(Checksum(a), b). Streaming writers checksum a section
// chunk by chunk with it.
func UpdateChecksum(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// AppendFrame appends the framed encoding of payload to dst and returns
// the extended slice. Panics if payload exceeds MaxFramePayload (WAL
// records are small; a violation is a programming error, not an input
// error).
func AppendFrame(dst, payload []byte) []byte {
	if len(payload) > MaxFramePayload {
		panic(fmt.Sprintf("dataio: frame payload %d exceeds MaxFramePayload", len(payload)))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// FrameLen returns the on-stream size of a frame carrying a payload of
// n bytes.
func FrameLen(n int) int { return frameHeaderSize + n }

// FrameReader decodes a stream of frames. Next returns payloads in
// order; the returned slice is reused by the following Next call.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
	off int64 // stream offset just past the last cleanly decoded frame
}

// NewFrameReader wraps r. The reader buffers internally; do not mix
// reads on r afterwards.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// Offset returns the stream offset immediately after the last frame
// that decoded cleanly — the truncation point a write-ahead log uses to
// drop a torn tail.
func (fr *FrameReader) Offset() int64 { return fr.off }

// Next returns the next payload. io.EOF marks a clean end exactly at a
// frame boundary; ErrTornFrame marks a partial, oversized, or
// checksum-failing frame (Offset still points at the last clean
// boundary). Any other error is from the underlying reader.
func (fr *FrameReader) Next() ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean boundary
		}
		return nil, err
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrTornFrame // header cut short
		}
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxFramePayload {
		return nil, ErrTornFrame
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	payload := fr.buf[:length]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrTornFrame // payload cut short
		}
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, ErrTornFrame
	}
	fr.off += int64(frameHeaderSize) + int64(length)
	return payload, nil
}
