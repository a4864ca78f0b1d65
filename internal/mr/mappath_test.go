package mr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/iokit"
)

// mapPathInput is sized to force several spills under a tiny sort
// buffer, so the A/B runs exercise bucketing, parallel run writes, and
// the per-partition final merges — not just the single-spill shortcut.
func mapPathInput() []Split {
	return lines(
		strings.Repeat("alpha beta gamma delta epsilon ", 120),
		strings.Repeat("beta beta zeta eta theta ", 150),
		strings.Repeat("gamma iota kappa alpha ", 90),
		strings.Repeat("lambda mu nu xi omicron pi ", 110),
		strings.Repeat("alpha omega ", 200),
	)
}

// assertSameRun asserts two results carry byte-identical sorted output,
// identical logical counters, and identical per-partition shuffle flows.
func assertSameRun(t *testing.T, aName string, a *Result, bName string, b *Result) {
	t.Helper()
	ra, rb := a.SortedOutput(), b.SortedOutput()
	if len(ra) != len(rb) {
		t.Fatalf("output length differs: %s %d, %s %d", aName, len(ra), bName, len(rb))
	}
	for i := range ra {
		if !bytes.Equal(ra[i].Key, rb[i].Key) || !bytes.Equal(ra[i].Value, rb[i].Value) {
			t.Fatalf("record %d differs: %s %q=%q, %s %q=%q",
				i, aName, ra[i].Key, ra[i].Value, bName, rb[i].Key, rb[i].Value)
		}
	}
	sa, sb := a.Stats, b.Stats
	if sa.MapInputRecords != sb.MapInputRecords ||
		sa.MapOutputRecords != sb.MapOutputRecords ||
		sa.MapOutputBytes != sb.MapOutputBytes ||
		sa.Spills != sb.Spills ||
		sa.ShuffleBytes != sb.ShuffleBytes ||
		sa.ReduceInputRecords != sb.ReduceInputRecords ||
		sa.ReduceOutputRecords != sb.ReduceOutputRecords {
		t.Errorf("logical counters differ:\n%s: %+v\n%s: %+v", aName, sa, bName, sb)
	}
	if fmt.Sprint(a.ShufflePerPartition) != fmt.Sprint(b.ShufflePerPartition) {
		t.Errorf("per-partition flows differ: %v vs %v",
			a.ShufflePerPartition, b.ShufflePerPartition)
	}
}

// TestMapPathEquivalence is the A/B harness for the map path and the
// scheduler: across codecs, transports, spill pressure, and combiner
// settings, the sequential configuration (one task at a time,
// SpillParallelism=1, DisablePooling) and the default (four concurrent
// tasks, bucketed sort, pooled buffers, parallel spill/merge) must
// produce byte-identical sorted output and identical logical counters,
// so neither depends on task scheduling.
func TestMapPathEquivalence(t *testing.T) {
	input := mapPathInput()
	for _, cc := range []struct {
		name string
		c    codec.Codec
	}{{"identity", nil}, {"snappy", codec.Snappy{}}} {
		for _, tcp := range []bool{false, true} {
			for _, tinyBuf := range []bool{false, true} {
				for _, combiner := range []bool{false, true} {
					name := fmt.Sprintf("%s/tcp=%v/tiny=%v/combiner=%v", cc.name, tcp, tinyBuf, combiner)
					t.Run(name, func(t *testing.T) {
						mk := func(sequential bool) *Job {
							job := wordCountJob(combiner)
							job.Codec = cc.c
							job.TCPShuffle = tcp
							if tinyBuf {
								job.SortBufferBytes = 1 << 10
							}
							job.Parallelism = 4
							if sequential {
								job.Parallelism = 1
								job.SpillParallelism = 1
								job.DisablePooling = true
							}
							return job
						}
						base, err := Run(mk(true), input)
						if err != nil {
							t.Fatalf("sequential baseline: %v", err)
						}
						fast, err := Run(mk(false), input)
						if err != nil {
							t.Fatalf("parallel pooled: %v", err)
						}
						assertSameRun(t, "sequential", base, "parallel", fast)
					})
				}
			}
		}
	}
}

// TestMapPathEquivalenceCustomComparator covers the non-raw-key-order
// sort path: a custom (reverse) comparator must disable the inlined
// bytes.Compare fast path on both sides and still produce identical
// output.
func TestMapPathEquivalenceCustomComparator(t *testing.T) {
	input := mapPathInput()
	mk := func(sequential bool) *Job {
		job := wordCountJob(true)
		job.KeyCompare = func(a, b []byte) int { return bytes.Compare(b, a) }
		job.SortBufferBytes = 1 << 10
		if sequential {
			job.SpillParallelism = 1
			job.DisablePooling = true
		}
		return job
	}
	base, err := Run(mk(true), input)
	if err != nil {
		t.Fatalf("sequential baseline: %v", err)
	}
	fast, err := Run(mk(false), input)
	if err != nil {
		t.Fatalf("parallel pooled: %v", err)
	}
	assertSameRun(t, "sequential", base, "parallel", fast)
}

// TestMapPathEquivalenceMultiPass forces multi-pass merges (tiny sort
// buffer, MergeFactor 2) so the smallest-first pass policy runs under
// both configurations.
func TestMapPathEquivalenceMultiPass(t *testing.T) {
	input := mapPathInput()
	mk := func(sequential bool) *Job {
		job := wordCountJob(true)
		job.SortBufferBytes = 1 << 10
		job.MergeFactor = 2
		if sequential {
			job.SpillParallelism = 1
			job.DisablePooling = true
		}
		return job
	}
	base, err := Run(mk(true), input)
	if err != nil {
		t.Fatalf("sequential baseline: %v", err)
	}
	fast, err := Run(mk(false), input)
	if err != nil {
		t.Fatalf("parallel pooled: %v", err)
	}
	assertSameRun(t, "sequential", base, "parallel", fast)
}

// TestMapPathParallelRace stresses the concurrent paths for the race
// detector: multiple jobs run at once, each with parallel map tasks,
// parallel spill/merge workers, and shared buffer pools, on one shared
// filesystem.
func TestMapPathParallelRace(t *testing.T) {
	input := mapPathInput()
	fs := iokit.NewMemFS()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	results := make([]*Result, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := wordCountJob(true)
			job.Name = fmt.Sprintf("race%d", i)
			job.FS = fs
			job.SortBufferBytes = 1 << 10
			job.Parallelism = 4
			job.SpillParallelism = 4
			results[i], errs[i] = Run(job, input)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for i := 1; i < len(results); i++ {
		assertSameRun(t, "job0", results[0], fmt.Sprintf("job%d", i), results[i])
	}
}

// TestMultiPassMergeSmallestFirst pins the Hadoop merge policy: when a
// multi-pass merge is forced, each intermediate pass must consume the
// smallest candidate segments, not the first K in slice order. The
// metered filesystem proves it — with large segments listed first, the
// bytes re-read by the merge shrink strictly versus the first-K
// batching, and match the smallest-first simulation exactly.
func TestMultiPassMergeSmallestFirst(t *testing.T) {
	mem := iokit.NewMemFS()
	meter := &iokit.Meter{}
	fs := iokit.Metered(mem, meter)
	job := wordCountJob(false)
	job.MergeFactor = 3
	j, err := job.normalized()
	if err != nil {
		t.Fatal(err)
	}

	// Seven segments, biggest first, with one shared key range so the
	// merged output interleaves. Identity codec: an intermediate's raw
	// bytes are exactly the sum of its inputs', and each file is those
	// raw bytes plus the checksum framing.
	recCounts := []int{100, 80, 60, 1, 1, 1, 1}
	segs := make([]segment, len(recCounts))
	raws := make([]int64, len(segs))
	var wantRecords int64
	for i, n := range recCounts {
		name := fmt.Sprintf("seg%02d", i)
		seg, err := writeTestSegment(j, fs, name, 0, i, n)
		if err != nil {
			t.Fatal(err)
		}
		assertFramedSize(t, fs, seg)
		segs[i] = seg
		raws[i] = seg.rawBytes
		wantRecords += int64(n)
	}

	// Simulate both batching policies over the real raw sizes.
	firstK := simulateMergeReads(raws, j.MergeFactor, false)
	smallest := simulateMergeReads(raws, j.MergeFactor, true)
	if smallest >= firstK {
		t.Fatalf("test fixture does not separate policies: smallest-first %d, first-K %d", smallest, firstK)
	}

	meter.Reset()
	counters := &Counters{}
	merged, err := mergeSegments(j, fs, counters, "merged", 0, segs, false, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if merged.records != wantRecords {
		t.Fatalf("merged %d records, want %d", merged.records, wantRecords)
	}
	assertFramedSize(t, mem, merged)
	if got := meter.ReadBytes(); got != smallest {
		t.Errorf("merge read %d bytes, want smallest-first total %d (first-K would read %d)",
			got, smallest, firstK)
	}
	if got := meter.ReadBytes(); got >= firstK {
		t.Errorf("merge read %d bytes, not below the first-K policy's %d", got, firstK)
	}

	// Intermediate pass files are internal: none may survive the merge.
	files, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.Contains(f, ".pass") {
			t.Errorf("orphaned intermediate file %s", f)
		}
	}
}

// framedSize is the on-disk size of raw payload bytes under the CRC32C
// segment framing: per block of up to checksumBlockSize bytes a
// uvarint(len+1) length and a 4-byte CRC, then one terminator byte.
func framedSize(raw int64) int64 {
	size := raw + 1
	for left := raw; left > 0; left -= checksumBlockSize {
		n := min(left, checksumBlockSize)
		size += int64(len(binary.AppendUvarint(nil, uint64(n)+1))) + 4
	}
	return size
}

// assertFramedSize checks a segment's file is exactly its raw bytes
// under the checksum framing (identity codec), which is what lets
// simulateMergeReads price reads from raw sizes alone.
func assertFramedSize(t *testing.T, fs iokit.FS, seg segment) {
	t.Helper()
	size, err := fs.Size(seg.file)
	if err != nil {
		t.Fatal(err)
	}
	if want := framedSize(seg.rawBytes); size != want {
		t.Fatalf("%s is %d bytes, want framedSize(%d) = %d", seg.file, size, seg.rawBytes, want)
	}
}

// writeTestSegment writes n framed records with segment-unique keys and
// returns its segment descriptor. It goes through the real segment sink
// so the file carries the real on-disk layering (checksum framing, the
// job's codec).
func writeTestSegment(job *Job, fs iokit.FS, name string, partition, id, n int) (segment, error) {
	sink, err := newSegmentSink(job, fs, name)
	if err != nil {
		return segment{}, err
	}
	var werr error
	for i := 0; i < n; i++ {
		// Keys sort within the segment and interleave across segments.
		k := []byte(fmt.Sprintf("k%06d.%02d", i, id))
		if werr = sink.w.WriteRecord(k, []byte("v")); werr != nil {
			break
		}
	}
	records, rawBytes, err := sink.close(job, werr)
	if err != nil {
		removeQuiet(fs, name)
		return segment{}, err
	}
	return segment{partition: partition, file: name, records: records, rawBytes: rawBytes}, nil
}

// simulateMergeReads predicts the total bytes a multi-pass merge reads
// from disk given segment raw sizes, the merge factor, and the batching
// policy (first K in order, or smallest K first), charging each read at
// its framed size. With the identity codec an intermediate's raw size
// is the sum of its inputs'.
func simulateMergeReads(raws []int64, factor int, smallestFirst bool) int64 {
	segs := append([]int64(nil), raws...)
	var read int64
	for len(segs) > factor {
		if smallestFirst {
			for i := 1; i < len(segs); i++ { // insertion sort: sizes are few
				for j := i; j > 0 && segs[j] < segs[j-1]; j-- {
					segs[j], segs[j-1] = segs[j-1], segs[j]
				}
			}
		}
		var inter int64
		for _, s := range segs[:factor] {
			inter += s
			read += framedSize(s)
		}
		segs = append(segs[factor:], inter)
	}
	for _, s := range segs {
		read += framedSize(s)
	}
	return read
}
