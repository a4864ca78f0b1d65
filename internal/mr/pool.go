package mr

import (
	"io"
	"sync"

	"repro/internal/bytesx"
)

// Steady-state buffer pools for the map-output hot path. A map task's
// lifetime churns through a collect arena, entry index slices, one
// framed-record writer per spill run, one framed-record reader per
// opened segment, and one copy buffer per shuffle fetch; pooling them
// makes a steady-state task allocate O(1) per spill instead of
// O(records). Pools never affect output bytes — they only recycle
// scratch memory — and Job.DisablePooling opts a job out entirely (the
// A/B baseline). The transport frame pool below is job-independent:
// wire frames are internal scratch that is copied out before release.

var (
	arenaPool   sync.Pool // *[]byte, collect arenas (cap ~SortBufferBytes)
	entriesPool sync.Pool // *[]bufEntry, collect/bucket index slices
	writerPool  sync.Pool // *bytesx.Writer, spill/merge run writers
	readerPool  sync.Pool // *bytesx.Reader, segment readers
	copyBufPool sync.Pool // *[]byte, fixed-size shuffle copy buffers
)

// copyBufSize is the pooled shuffle copy-buffer size, matching the
// record streams' 64 KiB buffering.
const copyBufSize = 64 << 10

func getArena(job *Job) []byte {
	if job.DisablePooling {
		return nil
	}
	if p, ok := arenaPool.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return nil
}

func putArena(job *Job, b []byte) {
	if job.DisablePooling || cap(b) == 0 {
		return
	}
	b = b[:0]
	arenaPool.Put(&b)
}

func getEntries(job *Job) []bufEntry {
	if job.DisablePooling {
		return nil
	}
	if p, ok := entriesPool.Get().(*[]bufEntry); ok {
		return (*p)[:0]
	}
	return nil
}

func putEntries(job *Job, e []bufEntry) {
	if job.DisablePooling || cap(e) == 0 {
		return
	}
	e = e[:0]
	entriesPool.Put(&e)
}

// getRecordWriter returns a framed-record writer over w, pooled unless
// the job disabled pooling. Callers must putRecordWriter it back after
// reading Records()/Bytes() and before the data is reused.
func getRecordWriter(job *Job, w io.Writer) *bytesx.Writer {
	if !job.DisablePooling {
		if rw, ok := writerPool.Get().(*bytesx.Writer); ok {
			rw.Reset(w)
			return rw
		}
	}
	return bytesx.NewWriter(w)
}

func putRecordWriter(job *Job, rw *bytesx.Writer) {
	if job.DisablePooling {
		return
	}
	rw.Reset(nil)
	writerPool.Put(rw)
}

func getRecordReader(job *Job, r io.Reader) *bytesx.Reader {
	if !job.DisablePooling {
		if rr, ok := readerPool.Get().(*bytesx.Reader); ok {
			rr.Reset(r)
			return rr
		}
	}
	return bytesx.NewReader(r)
}

func putRecordReader(job *Job, rr *bytesx.Reader) {
	if job.DisablePooling {
		return
	}
	rr.Reset(nil)
	readerPool.Put(rr)
}

// getCopyBuf returns a 64 KiB scratch buffer for io.CopyBuffer on the
// shuffle fetch path. job may be nil (job-independent callers).
func getCopyBuf(job *Job) []byte {
	if job != nil && job.DisablePooling {
		return make([]byte, copyBufSize)
	}
	if p, ok := copyBufPool.Get().(*[]byte); ok {
		return *p
	}
	return make([]byte, copyBufSize)
}

func putCopyBuf(job *Job, b []byte) {
	if (job != nil && job.DisablePooling) || cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	copyBufPool.Put(&b)
}

// frameBufPool recycles the transport's length-prefixed frame buffers
// (request names, error strings) so every fetch exchange stops paying
// a per-frame allocation. Frames are small (≤ maxErrFrame) and their
// contents are always copied into a string before release.
var frameBufPool sync.Pool // *[]byte

func getFrameBuf(n int) []byte {
	if p, ok := frameBufPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func putFrameBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	frameBufPool.Put(&b)
}
