package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// errBlockCorrupt is returned when a framed compressed block is damaged.
var errBlockCorrupt = errors.New("codec: corrupt block stream")

// blockWriter frames a stream into independently compressed blocks:
// uvarint raw length, uvarint compressed length, compressed bytes.
// It is the shared container for the block codecs (Snappy, BWSC).
// The raw block, the compressed block and the header are each one
// buffer reused for the life of the stream.
type blockWriter struct {
	w        io.Writer
	buf      []byte
	size     int
	compress func(dst, src []byte) []byte // appends src's encoding to dst
	closed   bool
	comp     []byte
	scratch  []byte
}

func newBlockWriter(w io.Writer, blockSize int, compress func(dst, src []byte) []byte) *blockWriter {
	return &blockWriter{w: w, size: blockSize, compress: compress}
}

func (b *blockWriter) Write(p []byte) (int, error) {
	if b.closed {
		return 0, errors.New("codec: write after close")
	}
	total := len(p)
	for len(p) > 0 {
		room := b.size - len(b.buf)
		if room == 0 {
			if err := b.flushBlock(); err != nil {
				return total - len(p), err
			}
			room = b.size
		}
		n := min(room, len(p))
		b.buf = append(b.buf, p[:n]...)
		p = p[n:]
	}
	return total, nil
}

func (b *blockWriter) flushBlock() error {
	if len(b.buf) == 0 {
		return nil
	}
	b.comp = b.compress(b.comp[:0], b.buf)
	b.scratch = b.scratch[:0]
	b.scratch = binary.AppendUvarint(b.scratch, uint64(len(b.buf)))
	b.scratch = binary.AppendUvarint(b.scratch, uint64(len(b.comp)))
	if _, err := b.w.Write(b.scratch); err != nil {
		return err
	}
	if _, err := b.w.Write(b.comp); err != nil {
		return err
	}
	b.buf = b.buf[:0]
	return nil
}

func (b *blockWriter) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	return b.flushBlock()
}

// blockReader decodes the stream produced by blockWriter. Every block
// decodes into the same buffer, which Read copies out of.
type blockReader struct {
	r          io.ByteReader
	raw        io.Reader
	decompress func(dst, src []byte, rawLen int) ([]byte, error) // decodes into dst's storage
	block      []byte
	pos        int
	comp       []byte
}

type byteReaderAdapter struct {
	r   io.Reader
	one [1]byte
}

func (a *byteReaderAdapter) Read(p []byte) (int, error) { return a.r.Read(p) }

func (a *byteReaderAdapter) ReadByte() (byte, error) {
	if _, err := io.ReadFull(a.r, a.one[:]); err != nil {
		return 0, err
	}
	return a.one[0], nil
}

func newBlockReader(r io.Reader, decompress func(dst, src []byte, rawLen int) ([]byte, error)) *blockReader {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if ok {
		return &blockReader{r: br, raw: r, decompress: decompress}
	}
	a := &byteReaderAdapter{r: r}
	return &blockReader{r: a, raw: a, decompress: decompress}
}

func (b *blockReader) Read(p []byte) (int, error) {
	for b.pos >= len(b.block) {
		if err := b.nextBlock(); err != nil {
			return 0, err
		}
	}
	n := copy(p, b.block[b.pos:])
	b.pos += n
	return n, nil
}

func (b *blockReader) nextBlock() error {
	rawLen, err := binary.ReadUvarint(b.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return errBlockCorrupt
	}
	compLen, err := binary.ReadUvarint(b.r)
	if err != nil {
		return errBlockCorrupt
	}
	if rawLen > 1<<30 || compLen > 1<<30 {
		return fmt.Errorf("%w: unreasonable block size", errBlockCorrupt)
	}
	if cap(b.comp) < int(compLen) {
		b.comp = make([]byte, compLen)
	}
	b.comp = b.comp[:compLen]
	if _, err := io.ReadFull(b.raw, b.comp); err != nil {
		return errBlockCorrupt
	}
	block, err := b.decompress(b.block[:0], b.comp, int(rawLen))
	if err != nil {
		return err
	}
	if len(block) != int(rawLen) {
		return fmt.Errorf("%w: block decoded to %d bytes, want %d", errBlockCorrupt, len(block), rawLen)
	}
	b.block = block
	b.pos = 0
	return nil
}

func (b *blockReader) Close() error { return nil }
