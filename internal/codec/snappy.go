package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// Snappy is an LZ77-family codec implementing the Snappy block format
// from scratch: a greedy matcher over a 4-byte hash table emitting
// literal and copy elements. It is the "fast, modest compression" point
// in the codec spectrum of Table 1. Blocks are framed by the shared
// container in blockio.go (Snappy itself defines only a block format).
type Snappy struct{}

// Name implements Codec.
func (Snappy) Name() string { return "snappy" }

// NewWriter implements Codec.
func (Snappy) NewWriter(w io.Writer) (io.WriteCloser, error) {
	return newBlockWriter(w, 64<<10, snappyAppendBlock), nil
}

// NewReader implements Codec.
func (Snappy) NewReader(r io.Reader) (io.ReadCloser, error) {
	return newBlockReader(r, snappyDecodeBlock), nil
}

const (
	snappyTagLiteral = 0x00
	snappyTagCopy1   = 0x01
	snappyTagCopy2   = 0x02
	snappyTagCopy4   = 0x03

	snappyHashBits  = 14
	snappyHashShift = 32 - snappyHashBits
)

func snappyHash(u uint32) uint32 { return (u * 0x1e35a7bd) >> snappyHashShift }

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

// snappyMaxBlockLen bounds the encoded size of an n-byte input: the
// preamble plus Snappy's own MaxEncodedLen (32 + n + n/6), which covers
// the worst mix of literal headers and copy elements.
func snappyMaxBlockLen(n int) int { return binary.MaxVarintLen64 + 32 + n + n/6 }

// AppendSnappyBlock appends src compressed as one self-framed Snappy
// block (uvarint raw length + literal/copy elements) to dst. The block
// carries its own raw length, so a transport exchanging blocks only
// needs to delimit the compressed bytes. This is the unit the shuffle
// wire compression sends per chunk.
func AppendSnappyBlock(dst, src []byte) []byte {
	return snappyAppendBlock(dst, src)
}

// DecompressSnappyBlock decodes one block produced by
// AppendSnappyBlock, using the raw length carried in its preamble. It
// decodes into dst's storage when dst has the capacity, so a caller
// that passes its previous result back decodes without allocating; the
// result aliases dst.
func DecompressSnappyBlock(dst, src []byte) ([]byte, error) {
	rawLen, n := binary.Uvarint(src)
	if n <= 0 || rawLen > 1<<30 {
		return nil, fmt.Errorf("%w: bad snappy preamble", errBlockCorrupt)
	}
	return snappyDecodeBlock(dst, src, int(rawLen))
}

// snappyAppendBlock appends src encoded as one Snappy block to dst: a
// uvarint with the uncompressed length followed by literal/copy
// elements. The matcher is greedy with a one-byte step over a 14-bit
// hash of 4-byte words, and only positions it steps on enter the table;
// snappy_ref_test.go pins its output byte for byte.
func snappyAppendBlock(dst, src []byte) []byte {
	d := len(dst)
	dst = slices.Grow(dst, snappyMaxBlockLen(len(src)))
	dst = dst[:cap(dst)]
	d += binary.PutUvarint(dst[d:], uint64(len(src)))
	if len(src) == 0 {
		return dst[:d]
	}
	if len(src) < 16 {
		d += snappyEmitLiteral(dst[d:], src)
		return dst[:d]
	}

	// table holds position+1 of the last word hashed to each slot, so
	// the zero value means empty.
	var table [1 << snappyHashBits]int32

	// sLimit leaves room so 4-byte loads never run past the end.
	sLimit := len(src) - 4
	lit := 0 // start of pending literal run
	s := 0
	for s <= sLimit {
		cur := load32(src, s)
		h := snappyHash(cur)
		cand := int(table[h]) - 1
		table[h] = int32(s + 1)
		if cand >= 0 && s-cand < 1<<16 && load32(src, cand) == cur {
			// The match may overlap the current position (offset <
			// length); the decoder repeats the bytes it is writing,
			// and such matches are essential for periodic data.
			length := 4 + snappyMatchLen(src, cand+4, s+4)
			if lit < s {
				d += snappyEmitLiteral(dst[d:], src[lit:s])
			}
			d += snappyEmitCopy(dst[d:], s-cand, length)
			s += length
			lit = s
			continue
		}
		s++
	}
	if lit < len(src) {
		d += snappyEmitLiteral(dst[d:], src[lit:])
	}
	return dst[:d]
}

// snappyMatchLen reports how many bytes src[a:] and src[b:] share
// (a < b), comparing eight at a time.
func snappyMatchLen(src []byte, a, b int) int {
	n := 0
	for b+n+8 <= len(src) {
		if x := load64(src, a+n) ^ load64(src, b+n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for b+n < len(src) && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// snappyEmitLiteral writes a literal element for lit (non-empty) into
// dst, which has room for it, and returns the bytes written.
func snappyEmitLiteral(dst, lit []byte) int {
	n := len(lit) - 1
	var hdr int
	switch {
	case n < 60:
		dst[0] = byte(n)<<2 | snappyTagLiteral
		hdr = 1
	case n < 1<<8:
		dst[0], dst[1] = 60<<2|snappyTagLiteral, byte(n)
		hdr = 2
	case n < 1<<16:
		dst[0], dst[1], dst[2] = 61<<2|snappyTagLiteral, byte(n), byte(n>>8)
		hdr = 3
	default:
		dst[0], dst[1], dst[2], dst[3] = 62<<2|snappyTagLiteral, byte(n), byte(n>>8), byte(n>>16)
		hdr = 4
	}
	return hdr + copy(dst[hdr:], lit)
}

// snappyEmitCopy writes copy elements covering length bytes at the
// given offset (1 <= offset < 1<<16) into dst and returns the bytes
// written. Long matches are split into 64-byte copy-2 elements.
func snappyEmitCopy(dst []byte, offset, length int) int {
	d := 0
	for length > 64 {
		dst[d], dst[d+1], dst[d+2] = 63<<2|snappyTagCopy2, byte(offset), byte(offset>>8)
		d += 3
		length -= 64
	}
	// Prefer the compact copy-1 form when it fits.
	if 4 <= length && length <= 11 && offset < 1<<11 {
		dst[d], dst[d+1] = byte(offset>>8)<<5|byte(length-4)<<2|snappyTagCopy1, byte(offset)
		return d + 2
	}
	dst[d], dst[d+1], dst[d+2] = byte(length-1)<<2|snappyTagCopy2, byte(offset), byte(offset>>8)
	return d + 3
}

// snappyDecodeBlock decodes one Snappy block of rawLen bytes into dst's
// storage, allocating only when cap(dst) < rawLen, and returns it.
func snappyDecodeBlock(dst, src []byte, rawLen int) ([]byte, error) {
	declared, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad snappy preamble", errBlockCorrupt)
	}
	if int(declared) != rawLen {
		return nil, fmt.Errorf("%w: snappy preamble %d != frame %d", errBlockCorrupt, declared, rawLen)
	}
	src = src[n:]
	// No element yields more than 64 bytes per 3 bytes of input, so a
	// larger length is corrupt; checking it first bounds the allocation.
	if rawLen < 0 || uint64(rawLen)*3 > uint64(len(src))*64 {
		return nil, fmt.Errorf("%w: snappy length %d from %d encoded bytes", errBlockCorrupt, rawLen, len(src))
	}
	if cap(dst) < rawLen {
		dst = make([]byte, rawLen)
	}
	dst = dst[:rawLen]
	d := 0
	for len(src) > 0 {
		tag := src[0]
		var offset, length int
		switch tag & 0x03 {
		case snappyTagLiteral:
			litLen := int(tag >> 2)
			hdr := 1
			switch {
			case litLen < 60:
				litLen++
			case litLen == 60:
				if len(src) < 2 {
					return nil, errBlockCorrupt
				}
				litLen = int(src[1]) + 1
				hdr = 2
			case litLen == 61:
				if len(src) < 3 {
					return nil, errBlockCorrupt
				}
				litLen = int(src[1]) | int(src[2])<<8
				litLen++
				hdr = 3
			case litLen == 62:
				if len(src) < 4 {
					return nil, errBlockCorrupt
				}
				litLen = int(src[1]) | int(src[2])<<8 | int(src[3])<<16
				litLen++
				hdr = 4
			default:
				if len(src) < 5 {
					return nil, errBlockCorrupt
				}
				litLen = int(src[1]) | int(src[2])<<8 | int(src[3])<<16 | int(src[4])<<24
				litLen++
				hdr = 5
			}
			if len(src) < hdr+litLen {
				return nil, errBlockCorrupt
			}
			if litLen > rawLen-d {
				return nil, fmt.Errorf("%w: snappy literal overruns %d-byte block", errBlockCorrupt, rawLen)
			}
			d += copy(dst[d:], src[hdr:hdr+litLen])
			src = src[hdr+litLen:]
			continue
		case snappyTagCopy1:
			if len(src) < 2 {
				return nil, errBlockCorrupt
			}
			length = 4 + int(tag>>2)&0x07
			offset = int(tag&0xe0)<<3 | int(src[1])
			src = src[2:]
		case snappyTagCopy2:
			if len(src) < 3 {
				return nil, errBlockCorrupt
			}
			length = 1 + int(tag>>2)
			offset = int(src[1]) | int(src[2])<<8
			src = src[3:]
		case snappyTagCopy4:
			if len(src) < 5 {
				return nil, errBlockCorrupt
			}
			length = 1 + int(tag>>2)
			offset = int(src[1]) | int(src[2])<<8 | int(src[3])<<16 | int(src[4])<<24
			src = src[5:]
		}
		if offset <= 0 || offset > d {
			return nil, fmt.Errorf("%w: snappy copy offset %d past %d decoded bytes", errBlockCorrupt, offset, d)
		}
		if length > rawLen-d {
			return nil, fmt.Errorf("%w: snappy copy overruns %d-byte block", errBlockCorrupt, rawLen)
		}
		switch {
		case length <= 16 && offset >= 8 && d+16 <= rawLen:
			// A short copy: two 8-byte moves, of which the second may
			// read bytes the first wrote, and which may write past
			// the copy's end bytes that later elements overwrite.
			binary.LittleEndian.PutUint64(dst[d:], load64(dst, d-offset))
			binary.LittleEndian.PutUint64(dst[d+8:], load64(dst, d-offset+8))
		case offset >= length:
			copy(dst[d:d+length], dst[d-offset:])
		default:
			// An overlapping copy repeats bytes it is itself writing.
			for i := d; i < d+length; i++ {
				dst[i] = dst[i-offset]
			}
		}
		d += length
	}
	if d != rawLen {
		return nil, fmt.Errorf("%w: snappy decoded %d bytes, want %d", errBlockCorrupt, d, rawLen)
	}
	return dst, nil
}
