package mr

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/iokit"
)

// checksumTestJob returns a normalized job, for exercising the framing
// layers directly.
func checksumTestJob(t *testing.T) *Job {
	t.Helper()
	j, err := wordCountJob(false).normalized()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// frameStream checksum-frames payload, returning the on-disk bytes.
func frameStream(t *testing.T, job *Job, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := newChecksumWriter(job, &buf)
	if _, err := cw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChecksumRoundTrip frames payloads of several sizes (empty,
// sub-block, exactly one block, multi-block with remainder) and checks
// the reader and the pass-through verifier both recover them exactly.
func TestChecksumRoundTrip(t *testing.T) {
	j := checksumTestJob(t)
	sizes := []int{0, 1, 100, checksumBlockSize, checksumBlockSize + 1, 3*checksumBlockSize + 17}
	for _, n := range sizes {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*31 + 7)
		}
		framed := frameStream(t, j, payload)

		cr := newChecksumReader(j, bytes.NewReader(framed))
		got, err := io.ReadAll(cr)
		cr.release()
		if err != nil {
			t.Fatalf("size %d: read framed stream: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: round trip mismatch: %d bytes out, want %d", n, len(got), len(payload))
		}

		raw, err := io.ReadAll(NewIntegrityVerifier(bytes.NewReader(framed)))
		if err != nil {
			t.Fatalf("size %d: verifier: %v", n, err)
		}
		if !bytes.Equal(raw, framed) {
			t.Fatalf("size %d: verifier is not pass-through: %d bytes out, want %d", n, len(raw), len(framed))
		}
	}

	// The engine's own path: a segment written through the sink is
	// framed on disk, and openSegment verifies and recovers every record.
	mem := iokit.NewMemFS()
	seg, err := writeTestSegment(j, mem, "seg", 0, 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	assertFramedSize(t, mem, seg)
	st, err := openSegment(j, mem, seg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainStreams(st)
	if err != nil {
		t.Fatal(err)
	}
	if int64(got) != seg.records {
		t.Fatalf("verified read returned %d records, want %d", got, seg.records)
	}
}

// TestChecksumDetectsCorruption flips each byte of a framed stream in
// turn: both the stripping reader and the pass-through verifier must
// fail with ErrIntegrity (never succeed, never panic) on every offset.
func TestChecksumDetectsCorruption(t *testing.T) {
	j := checksumTestJob(t)
	payload := []byte(strings.Repeat("integrity matters ", 40))
	framed := frameStream(t, j, payload)
	for off := 0; off < len(framed); off++ {
		corrupt := append([]byte(nil), framed...)
		corrupt[off] ^= 0x40

		cr := newChecksumReader(j, bytes.NewReader(corrupt))
		got, err := io.ReadAll(cr)
		cr.release()
		if err == nil {
			// Flipping a bit may never yield a silently valid stream of
			// the same content.
			if bytes.Equal(got, payload) {
				t.Fatalf("offset %d: corruption read back as the original payload", off)
			}
			t.Fatalf("offset %d: corrupt stream read without error", off)
		}
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("offset %d: error is not ErrIntegrity: %v", off, err)
		}

		if _, err := io.ReadAll(NewIntegrityVerifier(bytes.NewReader(corrupt))); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("offset %d: verifier error is not ErrIntegrity: %v", off, err)
		}
	}
}

// TestChecksumDetectsTruncation cuts a framed stream at every length:
// any prefix shorter than the full stream must fail with ErrIntegrity.
func TestChecksumDetectsTruncation(t *testing.T) {
	j := checksumTestJob(t)
	framed := frameStream(t, j, []byte(strings.Repeat("cut here ", 30)))
	for n := 0; n < len(framed); n++ {
		cr := newChecksumReader(j, bytes.NewReader(framed[:n]))
		_, err := io.ReadAll(cr)
		cr.release()
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("truncated at %d: error is not ErrIntegrity: %v", n, err)
		}
		if _, err := io.ReadAll(NewIntegrityVerifier(bytes.NewReader(framed[:n]))); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("truncated at %d: verifier error is not ErrIntegrity: %v", n, err)
		}
	}
	// Trailing garbage after the terminator is corruption too.
	trailing := append(append([]byte(nil), framed...), 'x')
	cr := newChecksumReader(j, bytes.NewReader(trailing))
	if _, err := io.ReadAll(cr); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("trailing data: error is not ErrIntegrity: %v", err)
	}
	cr.release()
}

// TestChecksumPassesThroughIOErrors pins the error taxonomy: an
// underlying I/O fault (an injected read failure) must surface as
// itself, not be reclassified as corruption.
func TestChecksumPassesThroughIOErrors(t *testing.T) {
	j := checksumTestJob(t)
	mem := iokit.NewMemFS()
	f, err := mem.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	cw := newChecksumWriter(j, f)
	if _, err := cw.Write([]byte(strings.Repeat("data ", 100))); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	flaky := &iokit.FlakyFS{Inner: mem, FailReadAt: 1}
	r, err := flaky.Open("seg")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cr := newChecksumReader(j, r)
	defer cr.release()
	_, err = io.ReadAll(cr)
	if !errors.Is(err, iokit.ErrInjected) {
		t.Fatalf("injected fault not passed through: %v", err)
	}
	if errors.Is(err, ErrIntegrity) {
		t.Fatalf("injected fault misclassified as integrity violation: %v", err)
	}
}

// TestFetchCorruptionRetries runs a TCP-shuffle job whose shuffle
// listener flips one bit in the first large payload write: the fetch
// must detect the corruption via checksum, count it, retry, and the job
// must still produce output identical to a clean run.
func TestFetchCorruptionRetries(t *testing.T) {
	input := lines(
		strings.Repeat("alpha beta gamma delta ", 200),
		strings.Repeat("epsilon zeta eta theta ", 200),
	)
	clean, err := Run(wordCountJob(false), input)
	if err != nil {
		t.Fatal(err)
	}

	job := wordCountJob(false)
	job.TCPShuffle = true
	job.MaxTaskAttempts = 4
	job.WrapShuffleListener = corruptOnceListener
	res, err := Run(job, input)
	if err != nil {
		t.Fatalf("job did not survive one-shot corruption: %v", err)
	}
	// Output must be byte-identical; work counters legitimately inflate
	// on the retried fetch, so only the output is compared.
	co, ro := clean.SortedOutput(), res.SortedOutput()
	if len(co) != len(ro) {
		t.Fatalf("output length differs: clean %d, corrupted-once %d", len(co), len(ro))
	}
	for i := range co {
		if !bytes.Equal(co[i].Key, ro[i].Key) || !bytes.Equal(co[i].Value, ro[i].Value) {
			t.Fatalf("record %d differs: clean %q=%q, corrupted-once %q=%q",
				i, co[i].Key, co[i].Value, ro[i].Key, ro[i].Value)
		}
	}
	if got := res.Stats.Extra[CounterFetchIntegrity]; got != 1 {
		t.Errorf("%s = %d, want 1", CounterFetchIntegrity, got)
	}
}

// corruptOnceListener wraps a listener so that exactly one large
// payload write (across all connections) has one bit flipped. Small
// writes — the wire protocol's size headers — are left intact, so the
// corruption hits segment payload, exactly what the checksum layer (and
// nothing else) can catch.
func corruptOnceListener(ln net.Listener) net.Listener {
	return &corruptListener{Listener: ln, state: new(atomic.Bool)}
}

type corruptListener struct {
	net.Listener
	state *atomic.Bool
}

func (l *corruptListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &corruptConn{Conn: conn, state: l.state}, nil
}

type corruptConn struct {
	net.Conn
	state *atomic.Bool
}

func (c *corruptConn) Write(p []byte) (int, error) {
	if len(p) >= 64 && c.state.CompareAndSwap(false, true) {
		tampered := append([]byte(nil), p...)
		tampered[len(tampered)/2] ^= 0x04
		n, err := c.Conn.Write(tampered)
		return n, err
	}
	return c.Conn.Write(p)
}
