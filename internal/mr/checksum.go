package mr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Segment integrity framing. Every spill, merge, and map-output segment
// is written as a sequence of CRC32C-protected blocks:
//
//	uvarint(len+1) | crc32c (4 bytes, little-endian) | payload
//
// terminated by a single zero byte (len+1 == 0 never occurs for a real
// block, so the terminator is unambiguous). The framing wraps the
// codec-compressed stream — it is the outermost layer on disk — so the
// same bytes a local merge verifies are what the shuffle serves over
// TCP, and a fetcher can verify them without decompressing. A corrupt,
// truncated, or trailing-garbage stream surfaces as ErrIntegrity, which
// the engine classifies as transient: local reads retry the attempt,
// and cluster fetches feed the unreachable-source blacklist and the
// DepLostError re-execution path instead of poisoning reduce output.

// ErrIntegrity marks structurally corrupt segment data: a bad frame
// length, a checksum mismatch, a truncated frame, or trailing bytes
// after the stream terminator. Underlying I/O errors (e.g. injected
// faults) pass through unwrapped.
var ErrIntegrity = errors.New("mr: segment integrity violation")

// CounterFetchIntegrity is the extra counter incremented once per fetch
// attempt that failed checksum verification.
const CounterFetchIntegrity = "mr.fetchIntegrityFaults"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// checksumBlockSize is the writer's payload size per frame, matching
	// the pooled copy buffers so a frame body always fits one.
	checksumBlockSize = copyBufSize
	// maxChecksumBlock bounds frame lengths the parser accepts, so a
	// corrupt length prefix cannot force a huge allocation.
	maxChecksumBlock = 1 << 20
)

// integrityTruncated classifies a mid-frame read error: EOF means the
// stream ended inside a frame (truncation → ErrIntegrity); anything
// else is a real I/O error and passes through unwrapped so fault
// classification (e.g. iokit.ErrInjected) still sees it.
func integrityTruncated(err error, what string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated %s", ErrIntegrity, what)
	}
	return err
}

// checksumWriter frames its input into CRC32C blocks. Close writes the
// pending block and the stream terminator; it never closes the
// underlying writer.
type checksumWriter struct {
	w      io.Writer
	job    *Job
	buf    []byte // pooled block buffer, filled to checksumBlockSize
	closed bool
}

func newChecksumWriter(job *Job, w io.Writer) *checksumWriter {
	return &checksumWriter{w: w, job: job, buf: getCopyBuf(job)[:0]}
}

// Write implements io.Writer, accumulating p into full blocks.
func (c *checksumWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		n := checksumBlockSize - len(c.buf)
		if n > len(p) {
			n = len(p)
		}
		c.buf = append(c.buf, p[:n]...)
		p = p[n:]
		if len(c.buf) == checksumBlockSize {
			if err := c.flushBlock(); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

func (c *checksumWriter) flushBlock() error {
	if len(c.buf) == 0 {
		return nil
	}
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(c.buf))+1)
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(c.buf, castagnoli))
	if _, err := c.w.Write(hdr[:n+4]); err != nil {
		return err
	}
	if _, err := c.w.Write(c.buf); err != nil {
		return err
	}
	c.buf = c.buf[:0]
	return nil
}

// Close flushes the pending block and writes the terminator. Idempotent;
// returns the pooled buffer either way.
func (c *checksumWriter) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.flushBlock()
	if err == nil {
		_, err = c.w.Write([]byte{0})
	}
	putCopyBuf(c.job, c.buf)
	c.buf = nil
	return err
}

// release abandons the writer without emitting anything further — for
// tearing down a sink whose setup failed after the writer was built.
func (c *checksumWriter) release() {
	if c.closed {
		return
	}
	c.closed = true
	putCopyBuf(c.job, c.buf)
	c.buf = nil
}

// checksumReader verifies and strips the CRC32C framing, delivering the
// original payload stream. Any structural fault is sticky and surfaces
// as ErrIntegrity; underlying I/O errors pass through unwrapped.
type checksumReader struct {
	br   byteReader
	job  *Job
	buf  []byte // pooled payload buffer
	pos  int
	n    int
	err  error // sticky
	done bool
}

func newChecksumReader(job *Job, r io.Reader) *checksumReader {
	return &checksumReader{br: byteReader{r: r}, job: job, buf: getCopyBuf(job)}
}

// Read implements io.Reader.
func (c *checksumReader) Read(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	for c.pos >= c.n {
		if err := c.fill(); err != nil {
			c.err = err
			return 0, err
		}
	}
	n := copy(p, c.buf[c.pos:c.n])
	c.pos += n
	return n, nil
}

// readFrameLen parses the frame-length uvarint, classifying overflow as
// corruption (binary.ReadUvarint's overflow error is untyped) and EOF
// as truncation.
func (c *checksumReader) readFrameLen() (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := c.br.ReadByte()
		if err != nil {
			return 0, integrityTruncated(err, "frame header")
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, fmt.Errorf("%w: frame header overflow", ErrIntegrity)
		}
		if b < 0x80 {
			return x | uint64(b)<<shift, nil
		}
		if i == binary.MaxVarintLen64-1 {
			return 0, fmt.Errorf("%w: frame header overflow", ErrIntegrity)
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// fill reads and verifies the next frame into c.buf.
func (c *checksumReader) fill() error {
	lenPlus, err := c.readFrameLen()
	if err != nil {
		return err
	}
	if lenPlus == 0 {
		// Terminator. A well-formed stream ends exactly here; any
		// trailing byte is corruption a plain EOF check would miss.
		c.done = true
		var one [1]byte
		switch _, err := io.ReadFull(c.br.r, one[:]); {
		case err == nil:
			return fmt.Errorf("%w: trailing data after segment terminator", ErrIntegrity)
		case errors.Is(err, io.EOF):
			return io.EOF
		default:
			return err
		}
	}
	size := lenPlus - 1
	if size > maxChecksumBlock {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrIntegrity, size, maxChecksumBlock)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(c.br.r, crcBuf[:]); err != nil {
		return integrityTruncated(err, "frame checksum")
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	if int(size) > cap(c.buf) {
		c.buf = make([]byte, size)
	}
	payload := c.buf[:size]
	if _, err := io.ReadFull(c.br.r, payload); err != nil {
		return integrityTruncated(err, "frame payload")
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrIntegrity, got, want)
	}
	c.buf = c.buf[:cap(c.buf)]
	c.pos, c.n = 0, int(size)
	return nil
}

// release returns the pooled buffer. The reader is unusable afterwards.
func (c *checksumReader) release() {
	if cap(c.buf) == copyBufSize {
		putCopyBuf(c.job, c.buf)
	}
	c.buf = nil
	c.err = errors.New("mr: checksum reader released")
}

// NewIntegrityVerifier wraps a framed segment stream in a verifying
// pass-through: the returned reader parses and CRC-checks each frame
// but emits the raw bytes unchanged (headers and terminator included),
// so a fetched segment lands on local disk still framed and a later
// local read re-verifies it. No byte of a frame is emitted before the
// whole frame verified, a premature EOF (missing terminator) and
// trailing data both surface as ErrIntegrity, and underlying I/O errors
// pass through unwrapped. The cluster worker's fetch path and the
// in-process shuffle both use it.
func NewIntegrityVerifier(r io.Reader) io.Reader {
	return &verifyReader{r: r}
}

type verifyReader struct {
	r    io.Reader
	out  []byte // verified raw bytes of the current frame
	pos  int
	err  error // sticky
	done bool  // terminator seen
	one  [1]byte
}

// Read implements io.Reader.
func (v *verifyReader) Read(p []byte) (int, error) {
	if v.err != nil {
		return 0, v.err
	}
	for v.pos >= len(v.out) {
		if err := v.fill(); err != nil {
			v.err = err
			return 0, err
		}
	}
	n := copy(p, v.out[v.pos:])
	v.pos += n
	return n, nil
}

// fill parses and verifies one frame, capturing its raw bytes into
// v.out for pass-through delivery.
func (v *verifyReader) fill() error {
	v.out = v.out[:0]
	v.pos = 0
	// Uvarint header, read byte-by-byte so the raw bytes are captured.
	var lenPlus uint64
	var shift uint
	for i := 0; ; i++ {
		if _, err := io.ReadFull(v.r, v.one[:]); err != nil {
			if i == 0 && errors.Is(err, io.EOF) {
				if v.done {
					return io.EOF
				}
				return fmt.Errorf("%w: segment ended without terminator", ErrIntegrity)
			}
			return integrityTruncated(err, "frame header")
		}
		if i >= binary.MaxVarintLen64 {
			return fmt.Errorf("%w: frame header overflow", ErrIntegrity)
		}
		b := v.one[0]
		v.out = append(v.out, b)
		if b < 0x80 {
			lenPlus |= uint64(b) << shift
			break
		}
		lenPlus |= uint64(b&0x7f) << shift
		shift += 7
	}
	if v.done {
		return fmt.Errorf("%w: trailing data after segment terminator", ErrIntegrity)
	}
	if lenPlus == 0 {
		// Terminator: deliver the zero byte; the next fill expects EOF.
		v.done = true
		return nil
	}
	size := lenPlus - 1
	if size > maxChecksumBlock {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrIntegrity, size, maxChecksumBlock)
	}
	hdrLen := len(v.out)
	need := int(size) + 4
	if cap(v.out) < hdrLen+need {
		grown := make([]byte, hdrLen, hdrLen+need)
		copy(grown, v.out)
		v.out = grown
	}
	frame := v.out[hdrLen : hdrLen+need]
	if _, err := io.ReadFull(v.r, frame); err != nil {
		return integrityTruncated(err, "frame payload")
	}
	want := binary.LittleEndian.Uint32(frame[:4])
	if got := crc32.Checksum(frame[4:], castagnoli); got != want {
		return fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrIntegrity, got, want)
	}
	v.out = v.out[:hdrLen+need]
	return nil
}
