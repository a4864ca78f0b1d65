package main

import (
	"io"
	"regexp"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/sched"
)

// Layers timed by the decorators in this file. The user-function
// layers also report their totals as Stats.Extra counters (through
// TaskInfo.Counters), which is how they reach the submitting process
// from fleet workers; the ledger additionally keeps them per task
// instance for the spans of an in-process job.
const (
	layerMapFn    = "map_fn"
	layerReduceFn = "reduce_fn"
	layerReexec   = "reexec"
)

func extraNS(layer string) string    { return "perfbench." + layer + ".ns" }
func extraCalls(layer string) string { return "perfbench." + layer + ".calls" }

// work is the time and volume one boundary saw.
type work struct {
	ns, calls, readBytes, writeBytes int64
}

func (w *work) add(o work) {
	w.ns += o.ns
	w.calls += o.calls
	w.readBytes += o.readBytes
	w.writeBytes += o.writeBytes
}

// ledger collects what the decorators of one traced in-process job saw,
// per task instance and layer. Codec work is kept per job: the Codec
// interface is handed no task identity.
type ledger struct {
	tcp bool

	mu                   sync.Mutex
	tasks                map[string]map[string]*work // task name → layer → work
	mapReads             []mapRead
	compress, decompress work // readBytes = compressed, writeBytes = raw
}

func newLedger() *ledger { return &ledger{tasks: make(map[string]map[string]*work)} }

func (l *ledger) add(task, layer string, w work) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	layers := l.tasks[task]
	if layers == nil {
		layers = make(map[string]*work)
		l.tasks[task] = layers
	}
	if layers[layer] == nil {
		layers[layer] = &work{}
	}
	layers[layer].add(w)
}

func (l *ledger) addCodec(dst *work, w work) {
	l.mu.Lock()
	dst.add(w)
	l.mu.Unlock()
}

// decorateFuncs wraps a job's user Mapper and Reducer with timers.
// With streamed set — a job without Anti-Combining, whose Map emits
// straight into the collect buffer (where spills run) and whose Reduce
// pulls its values straight from the reduce-side merge — the emits and
// value pulls are timed too and left out of the user functions' time.
// Otherwise they only touch Anti-Combining's in-memory buffers and
// count as user time, which keeps tracing cheap.
func decorateFuncs(job *mr.Job, led *ledger, streamed bool) {
	newMapper, newReducer := job.NewMapper, job.NewReducer
	job.NewMapper = func() mr.Mapper { return &timedMapper{inner: newMapper(), led: led, streamed: streamed} }
	job.NewReducer = func() mr.Reducer { return &timedReducer{inner: newReducer(), led: led, streamed: streamed} }
}

// report flushes one task instance's work at its Cleanup.
func report(info *mr.TaskInfo, led *ledger, task, layer string, w work) {
	if info.Counters != nil {
		info.Counters.AddExtra(extraNS(layer), w.ns)
		info.Counters.AddExtra(extraCalls(layer), w.calls)
	}
	led.add(task, layer, w)
}

type timedMapper struct {
	inner       mr.Mapper
	led         *ledger
	streamed    bool
	info        *mr.TaskInfo
	task, layer string
	timeEmits   bool
	w           work
	out         timedEmitter
}

func (m *timedMapper) Setup(info *mr.TaskInfo, out mr.Emitter) error {
	m.info = info
	m.task, m.layer = mr.MapTaskName(info.TaskID), layerMapFn
	if info.Partition >= 0 {
		// Anti-Combining re-executes Map inside reduce tasks to decode
		// LazySH records.
		m.task, m.layer = mr.ReduceTaskName(info.Partition), layerReexec
	}
	m.timeEmits = m.streamed && m.layer == layerMapFn
	return m.inner.Setup(info, out)
}

// Map times the call, less its emits when they run the collect buffer
// and its spills, which the map task's self time accounts for.
func (m *timedMapper) Map(key, value []byte, out mr.Emitter) error {
	if m.timeEmits {
		m.out.inner, m.out.ns = out, 0
		out = &m.out
	}
	start := time.Now()
	err := m.inner.Map(key, value, out)
	m.w.ns += int64(time.Since(start)) - m.out.ns
	m.w.calls++
	return err
}

func (m *timedMapper) Cleanup(out mr.Emitter) error {
	err := m.inner.Cleanup(out)
	report(m.info, m.led, m.task, m.layer, m.w)
	m.w = work{}
	return err
}

type timedEmitter struct {
	inner mr.Emitter
	ns    int64
}

func (e *timedEmitter) Emit(key, value []byte) error {
	start := time.Now()
	err := e.inner.Emit(key, value)
	e.ns += int64(time.Since(start))
	return err
}

type timedReducer struct {
	inner    mr.Reducer
	led      *ledger
	streamed bool
	info     *mr.TaskInfo
	w        work
	values   timedIter
}

func (r *timedReducer) Setup(info *mr.TaskInfo, out mr.Emitter) error {
	r.info = info
	return r.inner.Setup(info, out)
}

// Reduce times the call, less the pulls of its values when they stream
// from the reduce-side merge, which the reduce task's self time
// accounts for. Emits are left in: reduce output is only collected.
func (r *timedReducer) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	if r.streamed {
		r.values.inner, r.values.ns = values, 0
		values = &r.values
	}
	start := time.Now()
	err := r.inner.Reduce(key, values, out)
	r.w.ns += int64(time.Since(start)) - r.values.ns
	r.w.calls++
	return err
}

func (r *timedReducer) Cleanup(out mr.Emitter) error {
	err := r.inner.Cleanup(out)
	report(r.info, r.led, mr.ReduceTaskName(r.info.Partition), layerReduceFn, r.w)
	r.w = work{}
	return err
}

type timedIter struct {
	inner mr.ValueIter
	ns    int64
}

func (it *timedIter) Next() ([]byte, bool) {
	start := time.Now()
	v, ok := it.inner.Next()
	it.ns += int64(time.Since(start))
	return v, ok
}

// timedCodec times compression and decompression, excluding the time
// spent in the stream below the codec (checksum framing and the disk).
type timedCodec struct {
	inner codec.Codec
	led   *ledger
}

func (c *timedCodec) Name() string { return c.inner.Name() }

func (c *timedCodec) NewWriter(w io.Writer) (io.WriteCloser, error) {
	sink := &timedSink{w: w}
	cw, err := c.inner.NewWriter(sink)
	if err != nil {
		return nil, err
	}
	return &codecWriter{cw: cw, sink: sink, led: c.led}, nil
}

func (c *timedCodec) NewReader(r io.Reader) (io.ReadCloser, error) {
	src := &timedSource{r: r}
	cr, err := c.inner.NewReader(src)
	if err != nil {
		return nil, err
	}
	return &codecReader{cr: cr, src: src, led: c.led}, nil
}

type timedSink struct {
	w     io.Writer
	ns, n int64
}

func (s *timedSink) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := s.w.Write(p)
	s.ns += int64(time.Since(start))
	s.n += int64(n)
	return n, err
}

type timedSource struct {
	r     io.Reader
	ns, n int64
}

func (s *timedSource) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := s.r.Read(p)
	s.ns += int64(time.Since(start))
	s.n += int64(n)
	return n, err
}

type codecWriter struct {
	cw   io.WriteCloser
	sink *timedSink
	led  *ledger
	ns   int64
	raw  int64
}

func (c *codecWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.cw.Write(p)
	c.ns += int64(time.Since(start))
	c.raw += int64(n)
	return n, err
}

func (c *codecWriter) Close() error {
	start := time.Now()
	err := c.cw.Close()
	c.ns += int64(time.Since(start))
	c.led.addCodec(&c.led.compress, work{ns: c.ns - c.sink.ns, calls: 1, readBytes: c.sink.n, writeBytes: c.raw})
	return err
}

type codecReader struct {
	cr     io.ReadCloser
	src    *timedSource
	led    *ledger
	ns     int64
	raw    int64
	closed bool
}

func (c *codecReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.cr.Read(p)
	c.ns += int64(time.Since(start))
	c.raw += int64(n)
	return n, err
}

func (c *codecReader) Close() error {
	err := c.cr.Close()
	if !c.closed {
		c.closed = true
		c.led.addCodec(&c.led.decompress, work{ns: c.ns - c.src.ns, calls: 1, readBytes: c.src.n, writeBytes: c.raw})
	}
	return err
}

// timedFS times every read and write of the job's local disk and
// books it to an I/O class and owning task by file name.
type timedFS struct {
	inner iokit.FS
	led   *ledger
}

func (f *timedFS) Create(name string) (io.WriteCloser, error) {
	w, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	class, task, _ := classify(name, f.led.tcp)
	return &timedFile{w: w, c: w, led: f.led, layer: "iokit." + class, task: task}, nil
}

func (f *timedFS) Open(name string) (io.ReadCloser, error) {
	opened := time.Now()
	r, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	class, task, consumer := classify(name, f.led.tcp)
	return &timedFile{r: r, c: r, led: f.led, layer: "iokit." + class, task: task, consumer: consumer, opened: opened}, nil
}

func (f *timedFS) Remove(name string) error        { return f.inner.Remove(name) }
func (f *timedFS) Size(name string) (int64, error) { return f.inner.Size(name) }
func (f *timedFS) List() ([]string, error)         { return f.inner.List() }

type timedFile struct {
	r     io.Reader
	w     io.Writer
	c     io.Closer
	led   *ledger
	layer string
	task  string
	// consumer, for a map task's file, is the task that reads it as map
	// output; opened tells the two readers apart once the job's
	// timeline is known (see ledger.resolve).
	consumer string
	opened   time.Time
	wk       work
	closed   bool
}

func (f *timedFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := f.r.Read(p)
	f.wk.ns += int64(time.Since(start))
	f.wk.readBytes += int64(n)
	return n, err
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.w.Write(p)
	f.wk.ns += int64(time.Since(start))
	f.wk.writeBytes += int64(n)
	return n, err
}

func (f *timedFile) Close() error {
	start := time.Now()
	err := f.c.Close()
	f.wk.ns += int64(time.Since(start))
	if f.closed {
		return err
	}
	f.closed = true
	f.wk.calls = 1
	if f.consumer != "" {
		f.led.mu.Lock()
		f.led.mapReads = append(f.led.mapReads, mapRead{task: f.task, consumer: f.consumer, layer: f.layer, opened: f.opened, w: f.wk})
		f.led.mu.Unlock()
		return err
	}
	f.led.add(f.task, f.layer, f.wk)
	return err
}

// mapRead is a read of a map task's file whose reader is known only
// after the job: the map task itself (merging its spills) or the
// consumer of its output.
type mapRead struct {
	task, consumer, layer string
	opened                time.Time
	w                     work
}

// resolve books each map-file read to the map attempt that was running
// when the file was opened, or else to the file's consumer.
func (l *ledger) resolve(timeline []sched.Attempt) {
	for _, r := range l.mapReads {
		owner := r.consumer
		for _, a := range timeline {
			if a.Task == r.task && !r.opened.Before(a.Started) && !r.opened.After(a.Finished) {
				owner = r.task
				break
			}
		}
		l.add(owner, r.layer, r.w)
	}
	l.mapReads = nil
}

// ioClasses are the disk classes the ledger prints metrics for, in
// order. Files of the mergepass and reducemerge classes are classified
// and traced as well, but no workload at full size makes a merge pass,
// so their metrics would always read 0.
var ioClasses = []string{"spill", "mapout", "fetch", "shared"}

var (
	reShared = regexp.MustCompile(`/anti/t\d+-p(\d+)-`)
	reFetch  = regexp.MustCompile(`/r(\d+)/m(\d+)\.a\d+\.fetch`)
	reReduce = regexp.MustCompile(`/r(\d+)/`)
	reMap    = regexp.MustCompile(`/m(\d+)(?:\.a\d+)?/(spill\d+|out)\.p(\d+)`)
	rePass   = regexp.MustCompile(`\.pass\d+$`)
	reRFetch = regexp.MustCompile(`/r\d+/fetch`)
)

// classify maps a file the engine names (see internal/mr and
// internal/anticombine) to its I/O class and the task instance that
// writes it. For a map task's spill or output file, consumer is the
// task that reads it as map output: the fetch task over TCP, the reduce
// task otherwise.
func classify(name string, tcp bool) (class, task, consumer string) {
	if m := reShared.FindStringSubmatch(name); m != nil {
		return "shared", "reduce/" + trimZeros(m[1]), ""
	}
	if m := reFetch.FindStringSubmatch(name); m != nil {
		return "fetch", "fetch/" + trimZeros(m[1]) + "/" + trimZeros(m[2]), "reduce/" + trimZeros(m[1])
	}
	if m := reMap.FindStringSubmatch(name); m != nil {
		mapIdx, part := trimZeros(m[1]), trimZeros(m[3])
		consumer = "reduce/" + part
		if tcp {
			consumer = "fetch/" + part + "/" + mapIdx
		}
		switch {
		case strings.HasPrefix(m[2], "spill"):
			class = "spill"
		case rePass.MatchString(name):
			class = "mergepass"
		default:
			class = "mapout"
		}
		return class, "map/" + mapIdx, consumer
	}
	if m := reReduce.FindStringSubmatch(name); m != nil {
		if reRFetch.MatchString(name) {
			return "fetch", "reduce/" + trimZeros(m[1]), ""
		}
		return "reducemerge", "reduce/" + trimZeros(m[1]), ""
	}
	return "other", "job", ""
}

func trimZeros(s string) string {
	for len(s) > 1 && s[0] == '0' {
		s = s[1:]
	}
	return s
}
