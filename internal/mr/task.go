package mr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/obs"
)

// ctxCheckInterval is how many records (or key groups) a task processes
// between context-cancellation checks: frequent enough that a cancelled
// sibling stops promptly, rare enough to stay off the per-record path.
const ctxCheckInterval = 64

// errShortFetch marks a shuffle fetch that delivered fewer bytes than
// the server advertised — a connection-level fault (the peer died or
// its read failed mid-stream), so it is classified transient.
var errShortFetch = errors.New("mr: short shuffle fetch")

// ErrMisaligned reports a Job.AlignedInput violation: a map emission
// routed off its split's diagonal partition. It is permanent (retrying
// re-runs the same deterministic routing), so the job fails loudly
// instead of silently dropping records the pruned fetch graph would
// never collect.
var ErrMisaligned = errors.New("mr: aligned-input job emitted off-diagonal record")

// isTransientErr classifies errors worth retrying: injected I/O faults
// from the fault-injection harness and connection-level shuffle
// failures. Context cancellation is never transient — it means the job
// (or a speculative race) already decided this attempt's fate.
func isTransientErr(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, iokit.ErrInjected) || errors.Is(err, errShortFetch) {
		return true
	}
	// A truncated transfer — the transport surfaced fewer bytes than the
	// peer advertised — is a connection-level fault, same as errShortFetch.
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	// Integrity violations (checksum mismatch, truncation) mean the
	// bytes are bad, not the computation: a retry re-fetches or re-reads
	// and — on the cluster — feeds the source-blacklist/DepLostError
	// re-execution path.
	if errors.Is(err, ErrIntegrity) {
		return true
	}
	var nerr net.Error
	if errors.As(err, &nerr) {
		return true
	}
	var operr *net.OpError
	return errors.As(err, &operr)
}

// mapTaskDir names a map task's output directory. Attempt 0 keeps the
// historical layout; retries and speculative duplicates get their own
// directory so concurrent attempts never clobber each other's files.
func mapTaskDir(job *Job, taskID, attempt int) string {
	if attempt == 0 {
		return fmt.Sprintf("%s/m%04d", job.Workspace, taskID)
	}
	return fmt.Sprintf("%s/m%04d.a%d", job.Workspace, taskID, attempt)
}

// runMapTask executes one attempt of a map task: run the Mapper over
// the split, collect/sort/spill its output, and return the final
// per-partition segments. The task's single-threaded wall time is
// charged as map CPU. ctx cancellation is observed between input
// records so cancelled attempts stop promptly.
func runMapTask(ctx context.Context, job *Job, fs iokit.FS, counters *Counters, taskID, attempt int, split Split) (segs []segment, err error) {
	start := time.Now()
	defer func() { counters.mapTaskNs.Add(time.Since(start).Nanoseconds()) }()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mr: map task %d: %w", taskID, err)
	}
	// A failed (or cancelled) attempt deletes its attempt-scoped output
	// directory: spill files from before the fault would otherwise
	// orphan, and the attempt dir is private to this attempt so nothing
	// else can be reading it.
	defer func() {
		if err != nil {
			removePrefix(fs, mapTaskDir(job, taskID, attempt)+"/")
		}
	}()

	buf := newMapBuffer(job, fs, counters, taskID, attempt)
	mapper := job.NewMapper()
	info := &TaskInfo{
		JobName:       job.Name,
		Workspace:     job.Workspace,
		TaskID:        taskID,
		Partition:     -1,
		Attempt:       attempt,
		NumPartitions: job.NumReduceTasks,
		Partitioner:   job.Partitioner,
		KeyCompare:    job.KeyCompare,
		GroupCompare:  job.GroupCompare,
		Counters:      counters,
		FS:            fs,
		Tracer:        job.Tracer,
	}
	out := EmitterFunc(func(k, v []byte) error {
		counters.mapOutputRecords.Add(1)
		rl := int64(bytesx.RecordLen(k, v))
		counters.mapOutputBytes.Add(rl)
		p := job.Partitioner.Partition(k, job.NumReduceTasks)
		if p < 0 || p >= job.NumReduceTasks {
			return fmt.Errorf("mr: partitioner returned %d for %d partitions", p, job.NumReduceTasks)
		}
		if job.AlignedInput && p != taskID {
			return fmt.Errorf("%w: map task %d emitted key %q routed to partition %d", ErrMisaligned, taskID, k, p)
		}
		counters.AddMapOutputPartition(p, rl)
		return buf.add(p, k, v)
	})
	if err := mapper.Setup(info, out); err != nil {
		return nil, fmt.Errorf("mr: map task %d setup: %w", taskID, err)
	}
	var seen int
	err = split.Records(func(k, v []byte) error {
		if seen++; seen%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		counters.mapInputRecords.Add(1)
		return mapper.Map(k, v, out)
	})
	if err != nil {
		return nil, fmt.Errorf("mr: map task %d: %w", taskID, err)
	}
	if err := mapper.Cleanup(out); err != nil {
		return nil, fmt.Errorf("mr: map task %d cleanup: %w", taskID, err)
	}
	segs, err = buf.finish()
	if err != nil {
		return nil, fmt.Errorf("mr: map task %d spill/merge: %w", taskID, err)
	}
	return segs, nil
}

// removePrefix best-effort deletes every file under a name prefix —
// failed-attempt cleanup, where listing errors just mean the sweep is
// skipped.
func removePrefix(fs iokit.FS, prefix string) {
	files, err := fs.List()
	if err != nil {
		return
	}
	for _, f := range files {
		if strings.HasPrefix(f, prefix) {
			removeQuiet(fs, f)
		}
	}
}

// accountShuffle meters a reduce partition's incoming segments: wire
// bytes (post-codec) and framed record counts.
func accountShuffle(counters *Counters, fs iokit.FS, segs []segment) error {
	for _, s := range segs {
		size, err := fs.Size(s.file)
		if err != nil {
			return err
		}
		counters.shuffleBytes.Add(size)
		counters.reduceInRecords.Add(s.records)
	}
	return nil
}

// reduceMerge is the compute half of a reduce task: merge the
// partition's (already local) sorted segments and invoke Reduce once
// per key group. attempt scopes intermediate file names so scheduler
// retries never collide with a previous attempt's partial output.
func reduceMerge(ctx context.Context, job *Job, fs iokit.FS, counters *Counters, partition, attempt int, segs []segment) (output []Record, err error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mr: reduce task %d: %w", partition, err)
	}

	// A very wide shuffle is first merged down on "disk" so the final
	// streaming merge stays within the merge factor (Hadoop's
	// reduce-side merge). When retries are enabled the merge keeps its
	// inputs so a later attempt can redo the pass from intact files.
	var mergedName string
	defer func() {
		// A reduce attempt that fails after its pre-merge succeeded must
		// not orphan the merged file: the name is attempt-scoped, so a
		// retry rebuilds it from the kept inputs.
		if err != nil && mergedName != "" {
			removeQuiet(fs, mergedName)
		}
	}()
	if len(segs) > job.MergeFactor {
		name := fmt.Sprintf("%s/r%04d/merged", job.Workspace, partition)
		if attempt > 0 {
			name = fmt.Sprintf("%s.a%d", name, attempt)
		}
		merged, err := mergeSegments(job, fs, counters, name,
			partition, segs, false, partition, job.MaxTaskAttempts == 1)
		if err != nil {
			return nil, err
		}
		mergedName = name
		segs = []segment{merged}
	}

	streams := make([]recordStream, 0, len(segs))
	// A failed reduce must not hold its inputs open: close whatever
	// streams remain un-exhausted (EOF'd ones have closed themselves).
	defer func() {
		if err != nil {
			for _, st := range streams {
				closeRecordStream(st)
			}
		}
	}()
	for _, s := range segs {
		st, oerr := openSegment(job, fs, s)
		if oerr != nil {
			err = oerr
			return nil, err
		}
		streams = append(streams, st)
	}
	merged, err := newMergeIter(streams, job.KeyCompare)
	if err != nil {
		return nil, err
	}
	grouped := newGroupedIter(merged, job.GroupCompare)

	reducer := job.NewReducer()
	info := &TaskInfo{
		JobName:       job.Name,
		Workspace:     job.Workspace,
		TaskID:        partition,
		Partition:     partition,
		Attempt:       attempt,
		NumPartitions: job.NumReduceTasks,
		Partitioner:   job.Partitioner,
		KeyCompare:    job.KeyCompare,
		GroupCompare:  job.GroupCompare,
		Counters:      counters,
		FS:            fs,
		Tracer:        job.Tracer,
	}
	out := EmitterFunc(func(k, v []byte) error {
		counters.reduceOutRecords.Add(1)
		if !job.DiscardOutput {
			output = append(output, Record{Key: bytesx.Clone(k), Value: bytesx.Clone(v)})
		}
		return nil
	})
	if err := reducer.Setup(info, out); err != nil {
		return nil, fmt.Errorf("mr: reduce task %d setup: %w", partition, err)
	}
	var groups int
	for {
		if groups++; groups%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("mr: reduce task %d: %w", partition, err)
			}
		}
		key, ok, err := grouped.nextGroup()
		if err != nil {
			return nil, fmt.Errorf("mr: reduce task %d merge: %w", partition, err)
		}
		if !ok {
			break
		}
		vi := grouped.groupValues(key)
		if err := reducer.Reduce(key, vi, out); err != nil {
			return nil, fmt.Errorf("mr: reduce task %d: %w", partition, err)
		}
		if err := vi.drain(); err != nil {
			return nil, fmt.Errorf("mr: reduce task %d drain: %w", partition, err)
		}
	}
	if err := reducer.Cleanup(out); err != nil {
		return nil, fmt.Errorf("mr: reduce task %d cleanup: %w", partition, err)
	}
	return output, nil
}

// fetchSegments copies remote segments to reducer-local files over the
// transport, returning local replacements. Local file names are derived
// from prefix, which callers scope per (partition, map task, attempt).
// The byte stream is CRC-verified in flight (pass-through, so the local
// copy stays framed): a corrupted or truncated transfer fails the fetch
// with ErrIntegrity — a transient, retryable fault — instead of landing
// bad bytes for the merge to trip on. A failed fetch removes every
// local file the attempt created, so no partial attempt orphans files.
func fetchSegments(ctx context.Context, fs iokit.FS, transport Transport, job *Job, counters *Counters, partition int, prefix string, segs []segment) ([]segment, error) {
	local := make([]segment, len(segs))
	copyBuf := getCopyBuf(job)
	defer putCopyBuf(job, copyBuf)
	cleanup := func(fetched int, current string) {
		if current != "" {
			removeQuiet(fs, current)
		}
		for k := 0; k < fetched; k++ {
			removeQuiet(fs, local[k].file)
		}
	}
	for i, s := range segs {
		if err := ctx.Err(); err != nil {
			cleanup(i, "")
			return nil, fmt.Errorf("mr: reduce task %d fetch: %w", partition, err)
		}
		// The transport-level sub-span: one socket copy per segment,
		// nested (time-wise) inside the scheduler's fetch-task span.
		span := job.Tracer.Start(obs.KindFetch, "copy "+s.file,
			obs.Int("partition", int64(partition)))
		rc, size, err := transport.Fetch(ctx, fs, s.file)
		if err != nil {
			span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
			cleanup(i, "")
			return nil, fmt.Errorf("mr: reduce task %d fetching %s: %w", partition, s.file, err)
		}
		name := fmt.Sprintf("%s%04d", prefix, i)
		f, err := fs.Create(name)
		if err != nil {
			rc.Close()
			span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
			cleanup(i, name)
			return nil, err
		}
		n, err := io.CopyBuffer(f, NewIntegrityVerifier(rc), copyBuf)
		if err == nil {
			countWireBytes(counters, rc, n)
		}
		rc.Close()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil && n != size {
			err = fmt.Errorf("mr: reduce task %d fetched %d bytes of %s, want %d: %w",
				partition, n, s.file, size, errShortFetch)
		}
		if err != nil {
			if errors.Is(err, ErrIntegrity) {
				counters.AddExtra(CounterFetchIntegrity, 1)
			}
			span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
			cleanup(i, name)
			return nil, fmt.Errorf("mr: reduce task %d copying %s: %w", partition, s.file, err)
		}
		span.End(obs.Int("bytes", n))
		local[i] = segment{partition: partition, file: name, records: s.records, rawBytes: s.rawBytes}
	}
	return local, nil
}

// drainStreams is a helper for tests: it fully reads a record stream.
func drainStreams(s recordStream) (n int, err error) {
	for {
		_, _, err := s.next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}
