package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/anticombine"
	"repro/internal/cluster"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/sched"
)

// layerMetrics lists every per-layer metric with its unit, in print
// order. Each is a per-job value; a run reports its median over the
// traced jobs.
var layerMetrics = func() []metric {
	var ms []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			ms = append(ms, metric{name: n, unit: unit})
		}
	}
	add("s", "sched.map_fetch_overlap_s")
	for _, g := range []string{mr.TaskGroupMap, mr.TaskGroupFetch, mr.TaskGroupReduce} {
		add("s", "sched."+g+".busy_s", "sched."+g+".wait_s", "sched."+g+".task_s_max", "sched."+g+".task_s_mean")
	}
	add("s", "map_fn.busy_s")
	add("count", "map_fn.calls")
	add("s", "mr.map.self_s")
	add("count", "mr.map.spills", "mr.map.output_records")
	add("s", "codec.compress_s", "codec.decompress_s")
	add("B", "codec.raw_bytes", "codec.compressed_bytes")
	for _, c := range ioClasses {
		add("B", "iokit."+c+".write_bytes", "iokit."+c+".read_bytes")
		add("s", "iokit."+c+".io_s")
	}
	add("count", "mr.fetch.attempts", "mr.fetch.failed_attempts")
	add("B", "mr.fetch.raw_bytes", "mr.fetch.wire_bytes")
	add("ratio", "mr.fetch.wire_ratio")
	add("B", "mr.fetch.wire_minus_raw_bytes", "mr.fetch.raw_minus_shuffle_bytes")
	add("s", "reduce_fn.busy_s")
	add("count", "reduce_fn.calls")
	add("s", "anticombine.reexec_s")
	add("count", "anticombine.reexec_calls", "anticombine.lazy_records", "anticombine.eager_records",
		"anticombine.plain_records", "anticombine.shared_spills")
	add("x", "anticombine.map_output_reduction_x")
	add("ratio", "anticombine.replication")
	add("s", "mr.reduce.self_s")
	add("count", "mr.reduce.input_records", "mr.reduce.output_records")
	add("s", "cluster.fetch_s")
	add("B", "cluster.shuffle_bytes")
	add("count", "cluster.dials", "cluster.rpc_retries")
	add("count", "runtime.gc_cycles")
	add("s", "runtime.gc_pause_s")
	add("%", "obs.trace_overhead_pct")
	return ms
}()

// wireMetrics are the wire layer's metrics, and the disk class of the
// files a fetch task writes; they are printed only when the shuffle
// crosses a TCP wire, as without one they are always 0.
var wireMetrics = map[string]bool{
	"mr.fetch.raw_bytes": true, "mr.fetch.wire_bytes": true, "mr.fetch.wire_ratio": true,
	"mr.fetch.wire_minus_raw_bytes": true, "mr.fetch.raw_minus_shuffle_bytes": true,
	"iokit.fetch.write_bytes": true, "iokit.fetch.read_bytes": true, "iokit.fetch.io_s": true,
}

// appliesTo reports whether a per-layer metric is printed for inst: the
// wire's metrics need a TCP shuffle, and the cluster's a fleet.
func appliesTo(name string, inst *instance) bool {
	if strings.HasPrefix(name, "cluster.") {
		return len(inst.pids) > 0
	}
	return inst.wire || !wireMetrics[name]
}

// measureTraced alternates untraced and traced jobs for the given
// seconds, so drift in the machine affects both alike. The traced jobs
// give the per-layer metrics and the spans of the Chrome trace; the
// untraced ones give the trace overhead.
func measureTraced(inst *instance, o options, r *loopResult, stdout io.Writer) ([]metric, error) {
	tr := obs.NewTracer()
	now := time.Now()
	tr.Record("machine", machineHeader(o), now, now)
	perJob := make(map[string][]float64)
	start := time.Now()
	for len(r.traced) == 0 || time.Since(start).Seconds() < o.seconds {
		r.jobs = append(r.jobs, runJob(inst, nil, r))
		led := newLedger()
		s := runJob(inst, led, r)
		r.traced = append(r.traced, s)
		if s.failed {
			continue
		}
		led.resolve(s.res.Timeline)
		id := len(r.traced)
		recordSpans(tr, id, s, led)
		for name, v := range jobLayers(s, led) {
			perJob[name] = append(perJob[name], v)
		}
	}

	plain, traced := jobSeconds(r.jobs), jobSeconds(r.traced)
	ms := make([]metric, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		if !appliesTo(m.name, inst) {
			continue
		}
		m.value = median(perJob[m.name])
		if m.name == "obs.trace_overhead_pct" && len(plain) > 0 && len(traced) > 0 {
			m.value = 100 * (median(traced)/median(plain) - 1)
			m.note = fmt.Sprintf("median traced %.4fs vs untraced %.4fs", median(traced), median(plain))
		}
		ms = append(ms, m)
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "chrome trace: %s (%d spans)\n", path, len(tr.Spans()))
	return ms, nil
}

// jobLayers computes one traced job's per-layer values.
func jobLayers(s jobSample, led *ledger) map[string]float64 {
	res, st := s.res, s.res.Stats
	x := func(name string) float64 { return float64(st.Extra[name]) }
	secs := func(name string) float64 { return x(name) / 1e9 }
	v := map[string]float64{
		"sched.map_fetch_overlap_s": sched.Overlap(res.Timeline, mr.TaskGroupMap, mr.TaskGroupFetch).Seconds(),
		"map_fn.busy_s":             secs(extraNS(layerMapFn)),
		"map_fn.calls":              x(extraCalls(layerMapFn)),
		"mr.map.spills":             float64(st.Spills),
		"mr.map.output_records":     float64(st.MapOutputRecords),
		"reduce_fn.busy_s":          secs(extraNS(layerReduceFn)),
		"reduce_fn.calls":           x(extraCalls(layerReduceFn)),
		"anticombine.reexec_s":      secs(extraNS(layerReexec)),
		"anticombine.reexec_calls":  x(extraCalls(layerReexec)),
		"anticombine.lazy_records":  x(anticombine.CounterLazyRecords),
		"anticombine.eager_records": x(anticombine.CounterEagerRecords),
		"anticombine.plain_records": x(anticombine.CounterPlainRecords),
		"anticombine.shared_spills": x(anticombine.CounterSharedSpills),
		"mr.reduce.input_records":   float64(st.ReduceInputRecords),
		"mr.reduce.output_records":  float64(st.ReduceOutputRecords),
		"mr.fetch.raw_bytes":        x(mr.CounterShuffleRawBytes),
		"mr.fetch.wire_bytes":       x(mr.CounterShuffleWireBytes),
		"cluster.rpc_retries":       x(cluster.CounterRPCRetries),
		"runtime.gc_cycles":         float64(s.after.gc - s.before.gc),
		"runtime.gc_pause_s":        (s.after.gcPause - s.before.gcPause).Seconds(),
	}
	if orig := x(anticombine.CounterOrigMapBytes); orig > 0 {
		v["anticombine.map_output_reduction_x"] = orig / float64(st.MapOutputBytes)
	}
	if st.MapInputRecords > 0 {
		v["anticombine.replication"] = float64(st.MapOutputRecords) / float64(st.MapInputRecords)
	}
	if raw := v["mr.fetch.raw_bytes"]; raw > 0 {
		v["mr.fetch.wire_ratio"] = v["mr.fetch.wire_bytes"] / raw
	}
	// Conservation counts, reported as measured: wire equals raw on an
	// uncompressed wire, and the raw bytes fetched equal the shuffle.
	// Without a wire (local transport) there is nothing to conserve.
	if _, ok := st.Extra[mr.CounterShuffleRawBytes]; ok {
		v["mr.fetch.wire_minus_raw_bytes"] = v["mr.fetch.wire_bytes"] - v["mr.fetch.raw_bytes"]
		v["mr.fetch.raw_minus_shuffle_bytes"] = v["mr.fetch.raw_bytes"] - float64(st.ShuffleBytes)
	}
	if m := res.MeasuredShuffle; m != nil {
		v["cluster.fetch_s"] = m.FetchTime.Seconds()
		v["cluster.shuffle_bytes"] = float64(m.Bytes)
		v["cluster.dials"] = float64(m.Dials)
	}

	groups := map[string][]sched.Attempt{}
	for _, a := range res.Timeline {
		groups[a.Group] = append(groups[a.Group], a)
		if a.Group == mr.TaskGroupFetch {
			v["mr.fetch.attempts"]++
			if a.Outcome != sched.OutcomeSuccess {
				v["mr.fetch.failed_attempts"]++
			}
		}
	}
	for g, as := range groups {
		var busy, wait, maxT float64
		for _, a := range as {
			d := a.Duration().Seconds()
			busy += d
			wait += a.Started.Sub(a.Queued).Seconds()
			maxT = max(maxT, d)
		}
		v["sched."+g+".busy_s"] = busy
		v["sched."+g+".wait_s"] = wait
		v["sched."+g+".task_s_max"] = maxT
		v["sched."+g+".task_s_mean"] = busy / float64(len(as))
	}

	for _, layers := range led.tasks {
		for layer, w := range layers {
			if class, ok := strings.CutPrefix(layer, "iokit."); ok {
				v["iokit."+class+".write_bytes"] += float64(w.writeBytes)
				v["iokit."+class+".read_bytes"] += float64(w.readBytes)
				v["iokit."+class+".io_s"] += float64(w.ns) / 1e9
			}
		}
	}
	v["codec.compress_s"] = float64(led.compress.ns) / 1e9
	v["codec.decompress_s"] = float64(led.decompress.ns) / 1e9
	v["codec.raw_bytes"] = float64(led.compress.writeBytes)
	v["codec.compressed_bytes"] = float64(led.compress.readBytes)

	// A phase's self time is its attempts' time minus what their child
	// layers covered. Fleet jobs have no ledger (their decorators run in
	// the workers), so only the user functions, reported as Extra
	// counters, are subtracted there.
	if len(led.tasks) > 0 {
		v["mr.map.self_s"] = selfTime(groups[mr.TaskGroupMap], led)
		v["mr.reduce.self_s"] = selfTime(groups[mr.TaskGroupReduce], led)
	} else {
		v["mr.map.self_s"] = max(0, v["sched.map.busy_s"]-v["map_fn.busy_s"])
		v["mr.reduce.self_s"] = max(0, v["sched.reduce.busy_s"]-v["reduce_fn.busy_s"]-v["anticombine.reexec_s"])
	}
	return v
}

// selfTime sums, over a phase's attempts, the attempt time not covered
// by the task's child layers (clipped at zero: a map task's spill runs
// write on several goroutines at once).
func selfTime(attempts []sched.Attempt, led *ledger) float64 {
	var self float64
	for _, a := range attempts {
		var children time.Duration
		for _, w := range led.tasks[a.Task] {
			children += time.Duration(w.ns)
		}
		self += max(0, (a.Duration() - children).Seconds())
	}
	return self
}

// recordSpans records one traced job: the job span, one span per task
// attempt from its Timeline, and one aggregated span per child layer of
// each task instance, laid end to end from the attempt's start. Every
// span carries the job's id.
func recordSpans(tr *obs.Tracer, id int, s jobSample, led *ledger) {
	jobAttr := obs.Int("job", int64(id))
	var first, last time.Time
	attempts := map[string]sched.Attempt{}
	for _, a := range s.res.Timeline {
		if first.IsZero() || a.Queued.Before(first) {
			first = a.Queued
		}
		if a.Finished.After(last) {
			last = a.Finished
		}
		tr.Record(a.Group, fmt.Sprintf("%s#%d", a.Task, a.Attempt), a.Started, a.Finished, jobAttr,
			obs.Str("outcome", string(a.Outcome)), obs.Int("wait_us", a.Started.Sub(a.Queued).Microseconds()))
		if a.Outcome == sched.OutcomeSuccess {
			attempts[a.Task] = a
		}
	}
	tr.Record(obs.KindJob, fmt.Sprintf("job/%d", id), first, last, jobAttr)

	tasks := make([]string, 0, len(led.tasks))
	for t := range led.tasks {
		tasks = append(tasks, t)
	}
	sort.Strings(tasks)
	for _, task := range tasks {
		a, ok := attempts[task]
		at, limit := a.Started, a.Duration()
		if !ok {
			at, limit = first, last.Sub(first)
		}
		layers := make([]string, 0, len(led.tasks[task]))
		for l := range led.tasks[task] {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, layer := range layers {
			w := led.tasks[task][layer]
			d := min(time.Duration(w.ns), limit)
			limit -= d
			tr.Record(layer, task, at, at.Add(d), jobAttr, obs.Str("parent", task), obs.Bool("aggregated", true),
				obs.Int("calls", w.calls), obs.Int("read_bytes", w.readBytes), obs.Int("write_bytes", w.writeBytes),
				obs.Int("busy_ns", w.ns))
			at = at.Add(d)
		}
	}
	for _, c := range []struct {
		name string
		w    work
	}{{"compress", led.compress}, {"decompress", led.decompress}} {
		if c.w.calls > 0 {
			tr.Record("codec", c.name, first, first.Add(min(time.Duration(c.w.ns), last.Sub(first))), jobAttr,
				obs.Bool("aggregated", true), obs.Int("streams", c.w.calls), obs.Int("raw_bytes", c.w.writeBytes),
				obs.Int("compressed_bytes", c.w.readBytes), obs.Int("busy_ns", c.w.ns))
		}
	}
}
