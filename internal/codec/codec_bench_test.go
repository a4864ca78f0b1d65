package codec

import (
	"bytes"
	"io"
	"testing"
)

// benchData approximates map output: sorted, prefix-redundant framed
// records, the stream the codecs compress in real jobs.
func benchData() []byte {
	return zipfText(1 << 20)
}

func benchCompress(b *testing.B, c Codec, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := c.NewWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(buf.Len())/float64(len(data)), "ratio")
		}
	}
}

func benchDecompress(b *testing.B, c Codec, data []byte) {
	var buf bytes.Buffer
	w, _ := c.NewWriter(&buf)
	w.Write(data)
	w.Close()
	comp := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.NewReader(bytes.NewReader(comp))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressGzip(b *testing.B)    { benchCompress(b, Gzip{}, benchData()) }
func BenchmarkCompressDeflate(b *testing.B) { benchCompress(b, Deflate{}, benchData()) }
func BenchmarkCompressSnappy(b *testing.B)  { benchCompress(b, Snappy{}, benchData()) }
func BenchmarkCompressBWSC(b *testing.B)    { benchCompress(b, BWSC{}, benchData()) }

func BenchmarkDecompressGzip(b *testing.B)   { benchDecompress(b, Gzip{}, benchData()) }
func BenchmarkDecompressSnappy(b *testing.B) { benchDecompress(b, Snappy{}, benchData()) }
func BenchmarkDecompressBWSC(b *testing.B)   { benchDecompress(b, BWSC{}, benchData()) }

// The sort job's map-output shape: sorted, length-framed text lines.
func BenchmarkCompressSnappySortedLines(b *testing.B) {
	benchCompress(b, Snappy{}, sortedLines(1<<20))
}

func BenchmarkDecompressSnappySortedLines(b *testing.B) {
	benchDecompress(b, Snappy{}, sortedLines(1<<20))
}

func BenchmarkBWTForward(b *testing.B) {
	data := zipfText(64 << 10)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		bwtForward(data)
	}
}
