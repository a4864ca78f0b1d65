package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// This file freezes the Snappy block format as the package first wrote
// it: a greedy one-byte-step matcher over a 14-bit hash of 4-byte
// words, appending one element at a time, and a decoder that appends
// one byte at a time. The production kernels in snappy.go are faster
// rewrites; the tests below check that they emit byte-identical blocks
// and decode exactly as these do, so map-output, disk and wire bytes
// cannot move. The one intended difference is the empty input,
// for which refSnappyAppendBlock emits the corrupt literal 00 fc.

func refSnappyAppendBlock(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) < 16 {
		return refSnappyEmitLiteral(dst, src)
	}

	var table [1 << snappyHashBits]int32
	for i := range table {
		table[i] = -1
	}

	// sLimit leaves room so 4-byte loads never run past the end.
	sLimit := len(src) - 4
	lit := 0 // start of pending literal run
	s := 0
	for s <= sLimit {
		h := snappyHash(load32(src, s))
		cand := table[h]
		table[h] = int32(s)
		if cand >= 0 && s-int(cand) <= 1<<16-1 && load32(src, int(cand)) == load32(src, s) {
			// Extend the match forward. The match may overlap the
			// current position (offset < length); the decoder copies
			// byte by byte, so such matches are valid and essential for
			// periodic data.
			matchLen := 4
			for s+matchLen < len(src) && src[int(cand)+matchLen] == src[s+matchLen] {
				matchLen++
			}
			if lit < s {
				dst = refSnappyEmitLiteral(dst, src[lit:s])
			}
			dst = refSnappyEmitCopy(dst, s-int(cand), matchLen)
			s += matchLen
			lit = s
			continue
		}
		s++
	}
	if lit < len(src) {
		dst = refSnappyEmitLiteral(dst, src[lit:])
	}
	return dst
}

func refSnappyEmitLiteral(dst, lit []byte) []byte {
	n := len(lit) - 1
	switch {
	case n < 60:
		dst = append(dst, byte(n)<<2|snappyTagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|snappyTagLiteral, byte(n))
	case n < 1<<16:
		dst = append(dst, 61<<2|snappyTagLiteral, byte(n), byte(n>>8))
	default:
		dst = append(dst, 62<<2|snappyTagLiteral, byte(n), byte(n>>8), byte(n>>16))
	}
	return append(dst, lit...)
}

// refSnappyEmitCopy emits copy elements covering length bytes at the given
// offset (1 <= offset < 1<<16). Long matches are split into 64-byte
// copy-2 elements.
func refSnappyEmitCopy(dst []byte, offset, length int) []byte {
	for length > 64 {
		dst = append(dst, 63<<2|snappyTagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	// Prefer the compact copy-1 form when it fits.
	if 4 <= length && length <= 11 && offset < 1<<11 {
		return append(dst,
			byte(offset>>8)<<5|byte(length-4)<<2|snappyTagCopy1,
			byte(offset))
	}
	return append(dst, byte(length-1)<<2|snappyTagCopy2, byte(offset), byte(offset>>8))
}

// refSnappyDecompress is the byte-at-a-time decoder the package shipped
// before its decoder wrote into a preallocated block.
func refSnappyDecompress(src []byte, rawLen int) ([]byte, error) {
	declared, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad snappy preamble", errBlockCorrupt)
	}
	if int(declared) != rawLen {
		return nil, fmt.Errorf("%w: snappy preamble %d != frame %d", errBlockCorrupt, declared, rawLen)
	}
	src = src[n:]
	dst := make([]byte, 0, rawLen)
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
			dst = append(dst, src[hdr:hdr+litLen]...)
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
		if offset <= 0 || offset > len(dst) {
			return nil, fmt.Errorf("%w: snappy copy offset %d past %d decoded bytes", errBlockCorrupt, offset, len(dst))
		}
		// Overlapping copies must proceed byte by byte.
		for i := 0; i < length; i++ {
			dst = append(dst, dst[len(dst)-offset])
		}
	}
	if len(dst) != rawLen {
		return nil, fmt.Errorf("%w: snappy decoded %d bytes, want %d", errBlockCorrupt, len(dst), rawLen)
	}
	return dst, nil
}

// snappyRefInputs are the shapes the engine compresses plus the edge
// cases of the matcher: block-sized inputs, the 16-byte threshold below
// which a block is one literal, runs and tiny alphabets that produce
// long and overlapping copies.
func snappyRefInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(3))
	alphabet := func(k, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(k))
		}
		return b
	}
	zipf := zipfText(1 << 20)
	lines := sortedLines(1 << 20)
	in := map[string][]byte{
		"zipfText":    zipf,
		"sortedLines": lines,
		"periodic3":   bytes.Repeat([]byte("abc"), 50_000),
		"periodic61":  bytes.Repeat(alphabet(26, 61), 3000),
		"zeros":       make([]byte, 200_000),
		"alphabet2":   alphabet(2, 100_000),
		"alphabet4":   alphabet(4, 100_000),
		"alphabet16":  alphabet(16, 100_000),
	}
	for _, n := range []int{1, 15, 16, 17, 65535, 65536} {
		in[fmt.Sprintf("zipf%d", n)] = zipf[:n]
		in[fmt.Sprintf("lines%d", n)] = lines[len(lines)-n:]
		in[fmt.Sprintf("alphabet4_%d", n)] = alphabet(4, n)
	}
	return in
}

// checkSnappyAgainstRef asserts that the production encoder emits the
// reference block for data and that both decoders return data from it.
func checkSnappyAgainstRef(t *testing.T, data []byte) {
	t.Helper()
	want := refSnappyAppendBlock(nil, data)
	prefix := []byte("prefix")
	got := snappyAppendBlock(prefix, data)
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("encoder clobbered dst's existing bytes")
	}
	got = got[len(prefix):]
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded %d bytes: %d-byte block differs from the %d-byte reference", len(data), len(got), len(want))
	}
	ref, err := refSnappyDecompress(want, len(data))
	if err != nil || !bytes.Equal(ref, data) {
		t.Fatalf("reference decoder: %v", err)
	}
	// A reused destination holding stale bytes must not leak into the result.
	dst := bytes.Repeat([]byte{0xa5}, len(data)+7)
	dec, err := snappyDecodeBlock(dst[:3], got, len(data))
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("decoder: %v", err)
	}
}

func TestSnappyMatchesReference(t *testing.T) {
	for name, data := range snappyRefInputs() {
		t.Run(name, func(t *testing.T) {
			checkSnappyAgainstRef(t, data)

			// The framed stream, as a map-output segment stores it:
			// 64 KiB blocks, each uvarint raw length, uvarint
			// compressed length, reference block.
			var want []byte
			for rest := data; len(rest) > 0; {
				n := min(len(rest), 64<<10)
				blk := refSnappyAppendBlock(nil, rest[:n])
				want = binary.AppendUvarint(want, uint64(n))
				want = binary.AppendUvarint(want, uint64(len(blk)))
				want = append(want, blk...)
				rest = rest[n:]
			}
			var buf bytes.Buffer
			w, _ := Snappy{}.NewWriter(&buf)
			for rest := data; len(rest) > 0; {
				n := min(len(rest), 1000)
				w.Write(rest[:n])
				rest = rest[n:]
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("stream of %d bytes: %d bytes differ from the %d-byte reference stream", len(data), buf.Len(), len(want))
			}
		})
	}
}

// TestSnappyEmptyBlock pins the empty block to the bare preamble 00;
// the reference encoder emitted 00 fc, a literal built from length -1
// that every decoder rejects.
func TestSnappyEmptyBlock(t *testing.T) {
	blk := AppendSnappyBlock(nil, []byte{})
	if !bytes.Equal(blk, []byte{0}) {
		t.Fatalf("AppendSnappyBlock(empty) = % x, want 00", blk)
	}
	if got, err := DecompressSnappyBlock(nil, blk); err != nil || len(got) != 0 {
		t.Fatalf("DecompressSnappyBlock(00) = %q, %v", got, err)
	}
	blk = snappyAppendBlock(nil, nil)
	if got, err := snappyDecodeBlock(nil, blk, 0); err != nil || len(got) != 0 {
		t.Fatalf("snappyDecodeBlock(% x) = %q, %v", blk, got, err)
	}
	if _, err := snappyDecodeBlock(nil, refSnappyAppendBlock(nil, nil), 0); err == nil {
		t.Fatal("the reference's empty block 00 fc should be rejected")
	}
}

// FuzzSnappyMatchesReference encodes data with both encoders, and
// decodes data as a block (raw length from its preamble) with both
// decoders: they must agree on the block bytes, on accept or reject,
// and on the decoded bytes.
func FuzzSnappyMatchesReference(f *testing.F) {
	f.Add([]byte("hello world hello world hello world"))
	f.Add(bytes.Repeat([]byte{0}, 300))
	f.Add(refSnappyAppendBlock(nil, bytes.Repeat([]byte("abcd"), 40)))
	f.Add(refSnappyAppendBlock(nil, zipfText(2000)))
	f.Add([]byte{0x05, 0x10, 'a'})
	f.Add([]byte{0x08, 0x04, 'a', 'b', 0x0d, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			checkSnappyAgainstRef(t, data)
		}
		rawLen, n := binary.Uvarint(data)
		if n <= 0 || rawLen > 1<<20 {
			return
		}
		want, wantErr := refSnappyDecompress(data, int(rawLen))
		got, err := snappyDecodeBlock(make([]byte, 5), data, int(rawLen))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decoder error %v, reference error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("decoded bytes differ from the reference's")
		}
	})
}
