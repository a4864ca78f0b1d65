package mr

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// BenchmarkWordCountPipeline drives the full engine — collect, sort,
// spill, shuffle, merge, reduce — on a medium word-count job.
func BenchmarkWordCountPipeline(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "word%03d ", i%50)
	}
	line := sb.String()
	var splits []Split
	for i := 0; i < 8; i++ {
		recs := make([]Record, 100)
		for j := range recs {
			recs[j] = Record{Value: []byte(line)}
		}
		splits = append(splits, &MemSplit{Recs: recs})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		job := wordCountJob(true)
		job.DiscardOutput = true
		if _, err := Run(job, splits); err != nil {
			b.Fatal(err)
		}
	}
}

// stallMapper emits word counts like the plain word-count mapper but
// stalls briefly on each input record, modelling a map task whose input
// arrives over a network or a loaded disk. Latency-bound map tasks are
// where scheduling shows: the engine fetches finished maps' segments
// while the stalled maps still run.
type stallMapper struct {
	MapperBase
	stall time.Duration
}

func (m *stallMapper) Map(key, value []byte, out Emitter) error {
	time.Sleep(m.stall)
	for _, w := range strings.Fields(string(value)) {
		if err := out.Emit([]byte(w), []byte("1")); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkScheduler runs a word-count job shaped to reward pipelined
// shuffle: 8 splits (one 4x straggler), 4 workers, TCP shuffle,
// latency-bound maps, so fetches of completed maps run during the
// straggler's tail instead of after it.
func BenchmarkScheduler(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "word%03d ", i%50)
	}
	line := sb.String()
	var splits []Split
	for i := 0; i < 8; i++ {
		n := 4
		if i == 0 {
			n = 16 // the straggler
		}
		recs := make([]Record, n)
		for j := range recs {
			recs[j] = Record{Value: []byte(line)}
		}
		splits = append(splits, &MemSplit{Recs: recs})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		job := wordCountJob(true)
		job.NewMapper = func() Mapper { return &stallMapper{stall: time.Millisecond} }
		job.Parallelism = 4
		job.TCPShuffle = true
		job.DiscardOutput = true
		if _, err := Run(job, splits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapBufferSpill isolates the map-side sort-and-spill path.
// The baseline variant pins the historical configuration (sequential
// spills, no pooling, comparator-driven sort); the default variant runs
// the bucketed sort, pooled buffers, and parallel run writes. Both
// produce byte-identical output (TestMapPathEquivalence), so the delta
// is pure hot-loop cost.
func BenchmarkMapBufferSpill(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		sequential bool
	}{{"baseline", true}, {"default", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			job := wordCountJob(false)
			job.NumReduceTasks = 4 // matches the benchmark's &3 partitioner
			job.SortBufferBytes = 64 << 10
			if cfg.sequential {
				job.SpillParallelism = 1
				job.DisablePooling = true
			}
			j, err := job.normalized()
			if err != nil {
				b.Fatal(err)
			}
			keys := make([][]byte, 1000)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("key%06d", (i*7919)%1000))
			}
			value := []byte("v")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				counters := &Counters{}
				buf := newMapBuffer(j, j.FS, counters, 0, 0)
				for rep := 0; rep < 20; rep++ {
					for _, k := range keys {
						if err := buf.add(int(k[len(k)-1]&3), k, value); err != nil {
							b.Fatal(err)
						}
					}
				}
				if _, err := buf.finish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMapPathE2E drives full word-count runs with forced spills,
// comparing the historical sequential/unpooled map path against the
// overhauled default end to end (collect, bucketed sort, spill, merge,
// shuffle, reduce).
func BenchmarkMapPathE2E(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "word%03d ", i%80)
	}
	line := sb.String()
	var splits []Split
	for i := 0; i < 4; i++ {
		recs := make([]Record, 60)
		for j := range recs {
			recs[j] = Record{Value: []byte(line)}
		}
		splits = append(splits, &MemSplit{Recs: recs})
	}
	for _, cfg := range []struct {
		name       string
		sequential bool
	}{{"baseline", true}, {"default", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				job := wordCountJob(true)
				job.SortBufferBytes = 32 << 10
				job.DiscardOutput = true
				if cfg.sequential {
					job.SpillParallelism = 1
					job.DisablePooling = true
				}
				if _, err := Run(job, splits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeIter isolates the k-way merge.
func BenchmarkMergeIter(b *testing.B) {
	mkStream := func(seed int) recordStream {
		i := 0
		return streamFunc(func() ([]byte, []byte, error) {
			if i >= 1000 {
				return nil, nil, io.EOF
			}
			k := []byte(fmt.Sprintf("k%06d", i*16+seed))
			i++
			return k, k, nil
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streams := make([]recordStream, 16)
		for s := range streams {
			streams[s] = mkStream(s)
		}
		m, err := newMergeIter(streams, func(a, b []byte) int {
			return stringsCompare(string(a), string(b))
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := drainStreams(mergeAsStream{m}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeIterSegments measures the k-way merge over real segment
// files — the reader side of the pooled record readers — for the
// unpooled baseline and the pooled default.
func BenchmarkMergeIterSegments(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		noPools bool
	}{{"baseline", true}, {"default", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			job := wordCountJob(false)
			job.DisablePooling = cfg.noPools
			j, err := job.normalized()
			if err != nil {
				b.Fatal(err)
			}
			segs := make([]segment, 16)
			for i := range segs {
				seg, err := writeBenchSegment(j, fmt.Sprintf("seg%02d", i), i, 1000)
				if err != nil {
					b.Fatal(err)
				}
				segs[i] = seg
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				streams := make([]recordStream, len(segs))
				for s, seg := range segs {
					st, err := openSegment(j, j.FS, seg)
					if err != nil {
						b.Fatal(err)
					}
					streams[s] = st
				}
				m, err := newMergeIter(streams, j.KeyCompare)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := drainStreams(mergeAsStream{m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// writeBenchSegment writes n framed records with stream-unique keys.
func writeBenchSegment(job *Job, name string, id, n int) (segment, error) {
	f, err := job.FS.Create(name)
	if err != nil {
		return segment{}, err
	}
	w := getRecordWriter(job, f)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("k%06d", i*16+id))
		if err := w.WriteRecord(k, k); err != nil {
			f.Close()
			return segment{}, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return segment{}, err
	}
	records, rawBytes := w.Records(), w.Bytes()
	putRecordWriter(job, w)
	if err := f.Close(); err != nil {
		return segment{}, err
	}
	return segment{partition: 0, file: name, records: records, rawBytes: rawBytes}, nil
}

type mergeAsStream struct{ m *mergeIter }

func (s mergeAsStream) next() ([]byte, []byte, error) { return s.m.next() }

func stringsCompare(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
