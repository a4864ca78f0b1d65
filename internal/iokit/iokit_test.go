package iokit

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func testFS(t *testing.T, fs FS) {
	t.Helper()

	// Create and read back.
	w, err := fs.Create("a/b.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := fs.Open("a/b.txt")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if string(data) != "hello world" {
		t.Errorf("got %q", data)
	}

	// Size.
	if sz, err := fs.Size("a/b.txt"); err != nil || sz != 11 {
		t.Errorf("Size = %d, %v", sz, err)
	}

	// List.
	w2, _ := fs.Create("c.txt")
	w2.Close()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a/b.txt" || names[1] != "c.txt" {
		t.Errorf("List = %v", names)
	}

	// Missing file errors.
	if _, err := fs.Open("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Open(missing) = %v", err)
	}
	if _, err := fs.Size("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Size(missing) = %v", err)
	}
	if err := fs.Remove("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Remove(missing) = %v", err)
	}

	// Remove.
	if err := fs.Remove("c.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("c.txt"); !errors.Is(err, ErrNotExist) {
		t.Error("c.txt should be gone")
	}

	// Overwrite truncates.
	w3, _ := fs.Create("a/b.txt")
	w3.Write([]byte("x"))
	w3.Close()
	if sz, _ := fs.Size("a/b.txt"); sz != 1 {
		t.Errorf("overwrite size = %d", sz)
	}
}

func TestMemFS(t *testing.T) { testFS(t, NewMemFS()) }

func TestOSFS(t *testing.T) { testFS(t, NewOSFS(t.TempDir())) }

func TestMetered(t *testing.T) {
	var m Meter
	fs := Metered(NewMemFS(), &m)
	w, _ := fs.Create("f")
	w.Write(make([]byte, 100))
	w.Write(make([]byte, 50))
	w.Close()
	if m.WriteBytes() != 150 {
		t.Errorf("WriteBytes = %d", m.WriteBytes())
	}
	if m.WriteOps() != 2 {
		t.Errorf("WriteOps = %d", m.WriteOps())
	}
	r, _ := fs.Open("f")
	io.ReadAll(r)
	r.Close()
	if m.ReadBytes() != 150 {
		t.Errorf("ReadBytes = %d", m.ReadBytes())
	}
	m.Reset()
	if m.ReadBytes() != 0 || m.WriteBytes() != 0 {
		t.Error("Reset did not zero counters")
	}
	if m.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestCountingWriterReader(t *testing.T) {
	var m Meter
	mem := NewMemFS()
	inner, _ := mem.Create("f")
	cw := &CountingWriter{W: inner, M: &m}
	cw.Write([]byte("abcdef"))
	inner.Close()
	if cw.N != 6 || m.WriteBytes() != 6 {
		t.Errorf("CountingWriter N=%d meter=%d", cw.N, m.WriteBytes())
	}
	r, _ := mem.Open("f")
	cr := &CountingReader{R: r, M: &m}
	io.ReadAll(cr)
	if cr.N != 6 || m.ReadBytes() != 6 {
		t.Errorf("CountingReader N=%d meter=%d", cr.N, m.ReadBytes())
	}
}

func TestMemFSWriteAfterClose(t *testing.T) {
	fs := NewMemFS()
	w, _ := fs.Create("f")
	w.Close()
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after close should fail")
	}
	if err := w.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

func TestMemFSTotalBytes(t *testing.T) {
	fs := NewMemFS()
	w, _ := fs.Create("a")
	w.Write(make([]byte, 10))
	w.Close()
	w2, _ := fs.Create("b")
	w2.Write(make([]byte, 20))
	w2.Close()
	if got := fs.TotalBytes(); got != 30 {
		t.Errorf("TotalBytes = %d", got)
	}
}

func TestFlakyFSPersistentFault(t *testing.T) {
	fs := &FlakyFS{Inner: NewMemFS(), FailWriteAt: 2}
	w, _ := fs.Create("f")
	if _, err := w.Write([]byte("a")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := w.Write([]byte("b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2 should fail: %v", err)
	}
	// Persistent mode: every subsequent op keeps failing.
	if _, err := w.Write([]byte("c")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 3 should still fail: %v", err)
	}
}

func TestFlakyFSFailOnce(t *testing.T) {
	fs := &FlakyFS{Inner: NewMemFS(), FailWriteAt: 2, FailOnce: true}
	w, _ := fs.Create("f")
	if _, err := w.Write([]byte("a")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := w.Write([]byte("b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2 should fail: %v", err)
	}
	// Transient mode: exactly the Nth op fails; the retry succeeds.
	if _, err := w.Write([]byte("c")); err != nil {
		t.Fatalf("write 3 should succeed after transient fault: %v", err)
	}
	w.Close()

	rfs := &FlakyFS{Inner: NewMemFS(), FailReadAt: 1, FailOnce: true}
	w2, _ := rfs.Create("g")
	w2.Write([]byte("data"))
	w2.Close()
	r, _ := rfs.Open("g")
	buf := make([]byte, 4)
	if _, err := r.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 1 should fail: %v", err)
	}
	if _, err := r.Read(buf); err != nil {
		t.Fatalf("read 2 should succeed after transient fault: %v", err)
	}
	r.Close()
}

// TestMemFSPageBoundaries writes sizes around the first page and the
// largest page and reads them back with odd-sized reads, which must
// cross page boundaries and still fill each buffer as far as the file
// allows.
func TestMemFSPageBoundaries(t *testing.T) {
	fs := NewMemFS()
	sizes := []int{1, 511, 512, 65535, 65536, 65537}
	var want []byte
	w, _ := fs.Create("f")
	for i, n := range sizes {
		chunk := make([]byte, n)
		for j := range chunk {
			chunk[j] = byte(i*31 + j*7)
		}
		if k, err := w.Write(chunk); err != nil || k != n {
			t.Fatalf("Write(%d) = %d, %v", n, k, err)
		}
		want = append(want, chunk...)
	}
	if _, err := fs.Open("f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("an unclosed file should not be visible: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after close should fail")
	}
	if sz, err := fs.Size("f"); err != nil || sz != int64(len(want)) {
		t.Fatalf("Size = %d, %v; want %d", sz, err, len(want))
	}
	if got := fs.TotalBytes(); got != int64(len(want)) {
		t.Fatalf("TotalBytes = %d, want %d", got, len(want))
	}

	for _, bufSize := range []int{1, 3, 511, 513, 4097, 65537, 200_001} {
		r, _ := fs.Open("f")
		buf := make([]byte, bufSize)
		var got []byte
		for {
			n, err := r.Read(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if rest := len(want) - len(got); n != min(bufSize, rest) {
				t.Fatalf("buf %d: Read = %d with %d bytes left", bufSize, n, rest)
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("buf %d: read back %d bytes, differing from the %d written", bufSize, len(got), len(want))
		}
	}

	// Re-creating the name replaces the file; a reader opened before
	// keeps the old version.
	old, _ := fs.Open("f")
	w2, _ := fs.Create("f")
	w2.Write([]byte("new"))
	w2.Close()
	if data, _ := io.ReadAll(old); !bytes.Equal(data, want) {
		t.Errorf("reader opened before re-Create read %d bytes, want the old %d", len(data), len(want))
	}
	r, _ := fs.Open("f")
	if data, _ := io.ReadAll(r); string(data) != "new" {
		t.Errorf("after re-Create read %q", data)
	}
	if sz, _ := fs.Size("f"); sz != 3 {
		t.Errorf("Size after re-Create = %d", sz)
	}
	if got := fs.TotalBytes(); got != 3 {
		t.Errorf("TotalBytes after re-Create = %d", got)
	}
}

// BenchmarkMemFSWriteRead writes a 4 MiB file the way the engine's
// checksum framing does, a 5-byte block header then a 64 KiB block,
// and reads it back in 32 KiB reads.
func BenchmarkMemFSWriteRead(b *testing.B) {
	hdr := []byte{0x81, 0x80, 0x04, 0xde, 0xad}
	block := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	const blocks = 64
	buf := make([]byte, 32<<10)
	b.SetBytes(blocks * int64(len(hdr)+len(block)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs := NewMemFS()
		w, _ := fs.Create("f")
		for j := 0; j < blocks; j++ {
			w.Write(hdr)
			w.Write(block)
		}
		w.Close()
		r, _ := fs.Open("f")
		if _, err := io.CopyBuffer(io.Discard, struct{ io.Reader }{r}, buf); err != nil {
			b.Fatal(err)
		}
	}
}
