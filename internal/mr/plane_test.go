package mr

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/iokit"
)

// truncatingServer speaks just enough of the wire protocol to betray a
// client: it answers the first request with a raw-body header
// advertising the full size, writes only the first keep bytes of the
// body, and slams the connection shut.
func truncatingServer(t *testing.T, payload []byte, keep int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := readRequest(bufio.NewReader(conn)); err != nil {
			return
		}
		out := binary.AppendUvarint(nil, uint64(len(payload))+1)
		out = append(out, encodingRaw)
		out = append(out, payload[:keep]...)
		conn.Write(out)
	}()
	return ln.Addr().String()
}

// TestFetchTruncationIsUnexpectedEOF is the regression test for the
// truncation-masking bug: a server that dies after delivering a valid
// header and a partial body must surface io.ErrUnexpectedEOF from the
// reader — a clean io.EOF would let a short body masquerade as a
// complete one.
func TestFetchTruncationIsUnexpectedEOF(t *testing.T) {
	payload := []byte(strings.Repeat("truncated body ", 200))
	for _, keep := range []int{0, 1, 100, len(payload) - 1} {
		addr := truncatingServer(t, payload, keep)
		pool := NewConnPool()
		rc, size, err := pool.Fetch(context.Background(), addr, "seg")
		if err != nil {
			t.Fatalf("keep=%d: header should arrive intact: %v", keep, err)
		}
		if size != int64(len(payload)) {
			t.Fatalf("keep=%d: advertised size = %d, want %d", keep, size, len(payload))
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		pool.Close()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("keep=%d: read error = %v, want io.ErrUnexpectedEOF", keep, err)
		}
		if len(got) > keep {
			t.Errorf("keep=%d: read %d bytes past the truncation point", keep, len(got))
		}
	}
}

// TestFetchZeroByteSegment: a zero-byte segment is a legal body — the
// header advertises size 0, the reader yields immediate EOF, and the
// connection lands back in the pool for reuse, compressed or not.
func TestFetchZeroByteSegment(t *testing.T) {
	fs := iokit.NewMemFS()
	w, _ := fs.Create("empty")
	w.Close()
	w, _ = fs.Create("full")
	w.Write([]byte(strings.Repeat("follow-up ", 200)))
	w.Close()
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, compress := range []bool{false, true} {
		pool := NewConnPool()
		pool.WireCompression = compress
		rc, size, err := pool.Fetch(context.Background(), srv.Addr(), "empty")
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if size != 0 {
			t.Fatalf("compress=%v: size = %d, want 0", compress, size)
		}
		got, err := io.ReadAll(rc)
		if err != nil || len(got) != 0 {
			t.Fatalf("compress=%v: zero-byte body read %d bytes, err %v", compress, len(got), err)
		}
		rc.Close()
		// The connection must be at a clean frame boundary: the next
		// fetch rides it without a new dial.
		rc, _, err = pool.Fetch(context.Background(), srv.Addr(), "full")
		if err != nil {
			t.Fatalf("compress=%v: fetch after zero-byte: %v", compress, err)
		}
		io.Copy(io.Discard, rc)
		rc.Close()
		if d := pool.Dials(); d != 1 {
			t.Errorf("compress=%v: dials = %d, want 1", compress, d)
		}
		pool.Close()
	}
}

// TestPooledReuseAfterErrorFrameCompressed: a server error frame on a
// compression-requesting connection leaves it at a frame boundary; the
// subsequent fetch reuses it and decodes a compressed body correctly.
func TestPooledReuseAfterErrorFrameCompressed(t *testing.T) {
	fs := iokit.NewMemFS()
	payload := strings.Repeat("compressible error-frame interleaving ", 300)
	w, _ := fs.Create("seg")
	w.Write([]byte(payload))
	w.Close()
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewConnPool()
	pool.WireCompression = true
	defer pool.Close()

	for i := 0; i < 5; i++ {
		if _, _, err := pool.Fetch(context.Background(), srv.Addr(), "missing"); err == nil {
			t.Fatal("missing segment should error")
		}
		rc, size, err := pool.Fetch(context.Background(), srv.Addr(), "seg")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || string(got) != payload || size != int64(len(payload)) {
			t.Fatalf("round %d: body mismatch after error frame (err %v)", i, err)
		}
	}
	if d := pool.Dials(); d != 1 {
		t.Errorf("interleaved errors/fetches dialed %d times, want 1", d)
	}
}

// TestConnPoolCloseRacesPut: Close racing a reader's put-back must
// neither panic nor deadlock; run under -race this also proves the
// pool's bookkeeping is data-race-free.
func TestConnPoolCloseRacesPut(t *testing.T) {
	fs := iokit.NewMemFS()
	w, _ := fs.Create("seg")
	w.Write([]byte(strings.Repeat("raced ", 500)))
	w.Close()
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < 50; i++ {
		pool := NewConnPool()
		rc, _, err := pool.Fetch(context.Background(), srv.Addr(), "seg")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, rc)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); rc.Close() }() // puts the conn back
		go func() { defer wg.Done(); pool.Close() }()
		wg.Wait()
		pool.Close()
	}
}

// TestWireCompressionRoundTrip: a compression-requesting fetch delivers
// byte-identical data while moving fewer bytes on the wire, across
// bodies spanning one unit, many units, and the don't-compress floor.
func TestWireCompressionRoundTrip(t *testing.T) {
	fs := iokit.NewMemFS()
	sizes := map[string]int{
		"tiny":  wireCompressMin - 1, // below the floor: sent raw
		"one":   4 << 10,             // single compressed unit
		"multi": 3*wireChunk + 17,    // several units, ragged tail
	}
	bodies := map[string][]byte{}
	for name, n := range sizes {
		body := bytes.Repeat([]byte("wire compression round trip "), n/28+1)[:n]
		bodies[name] = body
		w, _ := fs.Create(name)
		w.Write(body)
		w.Close()
	}
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewConnPool()
	pool.WireCompression = true
	defer pool.Close()

	for name, body := range bodies {
		rc, size, err := pool.Fetch(context.Background(), srv.Addr(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := io.ReadAll(rc)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: body mismatch (%d of %d bytes, err %v)", name, len(got), len(body), err)
		}
		wire, ok := WireBytes(rc)
		rc.Close()
		if !ok {
			t.Fatalf("%s: reader should report wire bytes", name)
		}
		if name == "tiny" {
			if wire != size {
				t.Errorf("tiny: wire = %d, want raw %d (below compression floor)", wire, size)
			}
		} else if wire >= size {
			t.Errorf("%s: wire = %d, want < raw %d", name, wire, size)
		}
	}
	// The server's ledger must agree: raw served exceeds wire served.
	if raw, w := srv.ServedBytes(), srv.ServedWireBytes(); w >= raw {
		t.Errorf("server wire bytes %d should be below raw %d", w, raw)
	}
}

// idleListener stands in for a listener whose connections are served
// elsewhere: it reports the real address but never accepts.
type idleListener struct {
	addr net.Addr
	once sync.Once
	done chan struct{}
}

func (l *idleListener) Accept() (net.Conn, error) {
	<-l.done
	return nil, net.ErrClosed
}

func (l *idleListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *idleListener) Addr() net.Addr { return l.addr }

// TestJobOverTCPShuffleCompressed: wire compression is invisible to the
// job — every case's output matches a local-transport run key for key —
// and the shuffle meters agree across server, client and job. Raw bytes
// served equal raw bytes fetched equal Stats.ShuffleBytes; wire bytes
// served equal wire bytes fetched; and wire equals raw when nothing is
// compressed. The cases cover the buffered (MemFS) and sendfile (OSFS)
// raw bodies, compressed bodies, and many reducers fetching at once.
func TestJobOverTCPShuffleCompressed(t *testing.T) {
	// No combiner: every emission crosses the shuffle, so segments clear
	// the compression floor, and at three reducers outgrow the first
	// coalesced chunk, so the OSFS case reaches sendfile.
	const wordsPerSplit = 25000
	var input []Split
	for s := 0; s < 4; s++ {
		var words strings.Builder
		for i := s * wordsPerSplit; i < (s+1)*wordsPerSplit; i++ {
			fmt.Fprintf(&words, "word%05d ", i%1300)
		}
		input = append(input, lines(words.String())...)
	}
	memFS := func(*testing.T) iokit.FS { return iokit.NewMemFS() }
	osFS := func(t *testing.T) iokit.FS { return iokit.NewOSFS(t.TempDir()) }
	cases := []struct {
		name        string
		fs          func(*testing.T) iokit.FS
		compress    bool
		parallelism int
		reducers    int
	}{
		{"raw-memfs", memFS, false, 1, 3},
		{"sendfile-osfs", osFS, false, 1, 3},
		{"compressed-memfs", memFS, true, 1, 3},
		{"concurrent-raw", memFS, false, 8, 8},
		{"concurrent-compressed", memFS, true, 8, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := wordCountJob(false)
			ref.NumReduceTasks = tc.reducers
			want, err := Run(ref, input)
			if err != nil {
				t.Fatal(err)
			}

			job := wordCountJob(false)
			job.NumReduceTasks = tc.reducers
			job.Parallelism = tc.parallelism
			job.FS = tc.fs(t)
			job.TCPShuffle = true
			job.WireCompression = tc.compress
			// Serve the job's shuffle from a server this test owns, on the
			// job's own listener, so its meters can be read after the run.
			// It serves the unmetered job FS, which keeps OSFS files raw
			// and so reaches the sendfile path.
			var srv *SegmentServer
			job.WrapShuffleListener = func(ln net.Listener) net.Listener {
				srv = NewSegmentServerOn(job.FS, ln, nil)
				return &idleListener{addr: ln.Addr(), done: make(chan struct{})}
			}
			got, err := Run(job, input)
			if srv != nil {
				srv.Close() // waits for handlers, so the meters are final
			}
			if err != nil {
				t.Fatal(err)
			}
			gotOut, wantOut := outputMap(t, got), outputMap(t, want)
			if len(gotOut) != len(wantOut) {
				t.Fatalf("key count: tcp %d, local %d", len(gotOut), len(wantOut))
			}
			for k, v := range wantOut {
				if gotOut[k] != v {
					t.Errorf("key %q: tcp %q, local %q", k, gotOut[k], v)
				}
			}

			raw := got.Stats.Extra[CounterShuffleRawBytes]
			wire := got.Stats.Extra[CounterShuffleWireBytes]
			if raw == 0 || raw != srv.ServedBytes() || raw != got.Stats.ShuffleBytes {
				t.Errorf("raw bytes: served %d, fetched %d, Stats.ShuffleBytes %d; want all equal and > 0",
					srv.ServedBytes(), raw, got.Stats.ShuffleBytes)
			}
			if wire != srv.ServedWireBytes() {
				t.Errorf("wire bytes: served %d, fetched %d; want equal", srv.ServedWireBytes(), wire)
			}
			if tc.compress {
				if wire == 0 || wire >= raw {
					t.Errorf("compressed: raw %d, wire %d; want 0 < wire < raw", raw, wire)
				}
			} else if wire != raw {
				t.Errorf("uncompressed: moved %d wire bytes for %d raw; want equal", wire, raw)
			}
		})
	}
}

// BenchmarkShuffleDataPlane measures the shuffle body path end to end
// over loopback TCP: the buffered copy plane (MemFS), the zero-copy
// sendfile plane (OSFS, where the server hands the socket a raw
// *os.File), and the Snappy wire-compression plane. Each variant
// reports bytes-on-wire per op next to throughput, so the
// raw-vs-sendfile-vs-compressed table in EXPERIMENTS.md reads straight
// off this benchmark (BENCH_7.json).
func BenchmarkShuffleDataPlane(b *testing.B) {
	const segSize = 8 << 20
	row := []byte("shuffle data plane benchmark payload row 0123456789 ")
	payload := bytes.Repeat(row, segSize/len(row)+1)[:segSize]

	plant := func(b *testing.B, fs iokit.FS, name string, body []byte) {
		b.Helper()
		w, err := fs.Create(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(body); err != nil {
			b.Fatal(err)
		}
		w.Close()
	}
	bench := func(b *testing.B, fs iokit.FS, compress bool) {
		plant(b, fs, "seg", payload)
		srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		pool := NewConnPool()
		pool.WireCompression = compress
		defer pool.Close()
		b.SetBytes(segSize)
		b.ResetTimer()
		var wire int64
		for i := 0; i < b.N; i++ {
			rc, _, err := pool.Fetch(context.Background(), srv.Addr(), "seg")
			if err != nil {
				b.Fatal(err)
			}
			if n, err := io.Copy(io.Discard, rc); err != nil || n != segSize {
				b.Fatalf("drained %d bytes, err %v", n, err)
			}
			if w, ok := WireBytes(rc); ok {
				wire += w
			}
			rc.Close()
		}
		b.ReportMetric(float64(wire)/float64(b.N), "wireB/op")
	}

	b.Run("raw-memfs", func(b *testing.B) { bench(b, iokit.NewMemFS(), false) })
	b.Run("sendfile-osfs", func(b *testing.B) { bench(b, iokit.NewOSFS(b.TempDir()), false) })
	b.Run("compressed-memfs", func(b *testing.B) { bench(b, iokit.NewMemFS(), true) })
	b.Run("compressed-osfs", func(b *testing.B) { bench(b, iokit.NewOSFS(b.TempDir()), true) })

	// Eight concurrent 1 MiB fetches from one server, each a pooled
	// request/response exchange on its own connection.
	b.Run("pooled-8way-memfs", func(b *testing.B) {
		const nSeg = 8
		fs := iokit.NewMemFS()
		var names []string
		for i := 0; i < nSeg; i++ {
			name := fmt.Sprintf("seg%d", i)
			plant(b, fs, name, payload[:segSize/nSeg])
			names = append(names, name)
		}
		srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		pool := NewConnPool()
		defer pool.Close()
		b.SetBytes(segSize)
		b.ResetTimer()
		var wire atomic.Int64
		for i := 0; i < b.N; i++ {
			errs := make(chan error, nSeg)
			for _, name := range names {
				go func() {
					rc, _, err := pool.Fetch(context.Background(), srv.Addr(), name)
					if err == nil {
						_, err = io.Copy(io.Discard, rc)
						if w, ok := WireBytes(rc); ok {
							wire.Add(w)
						}
						rc.Close()
					}
					errs <- err
				}()
			}
			for range names {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(wire.Load())/float64(b.N), "wireB/op")
	})
}
