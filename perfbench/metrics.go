package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	name, unit string
	value      float64
	note       string
}

// machineHeader names the machine, toolchain, code and seed a result
// was measured with. The commit comes from run.sh; a checkout without
// git history is identified by the digest of its Go sources.
func machineHeader(o options) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%g trace=%t scale=%g cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		o.workload, o.seed, o.seconds, o.trace, o.scale, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), commit, sourceDigest("."))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cost is a snapshot of the resources the system under test has used.
type cost struct {
	cpu     time.Duration
	alloc   uint64
	gc      uint32
	gcPause time.Duration
}

// sampleCost reads this process's user+sys CPU (getrusage) and heap
// allocation and GC totals, plus the CPU of the given worker processes
// from /proc/<pid>/stat.
func sampleCost(pids []int) cost {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	c := cost{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	for _, pid := range pids {
		c.cpu += procCPU(pid)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gc, c.gcPause = ms.TotalAlloc, ms.NumGC, time.Duration(ms.PauseTotalNs)
	return c
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times, which
// is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * clockTick
}

// peakRSS is the peak resident memory of this process plus the peaks of
// the worker processes, in bytes.
func peakRSS(pids []int) float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	total := float64(ru.Maxrss) * 1024
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				total += kb * 1024
			}
		}
	}
	return total
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of v that leaves at least ten samples
// beyond it. With eleven samples or fewer no percentile leaves ten, and
// the lowest sample, the one leaving the most beyond it, is reported.
func tail(v []float64) (float64, string) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, "no successful job"
	}
	k := max(1, n-10) // the k-th smallest leaves n-k beyond it
	return s[k-1], fmt.Sprintf("p%.0f of n=%d, %d beyond", 100*float64(k)/float64(n), n, n-k)
}

// jobSeconds lists the times of the jobs that succeeded. A failed job
// counts in the result's failed and attempted counts, not in timings.
func jobSeconds(jobs []jobSample) []float64 {
	var v []float64
	for _, s := range jobs {
		if !s.failed {
			v = append(v, s.wall.Seconds())
		}
	}
	return v
}

// endToEnd derives the user-visible metrics from the untraced loop.
// Throughput is the successful jobs' input over every job's time; CPU
// and allocation are per attempted job.
func endToEnd(inst *instance, r loopResult, setup float64) []metric {
	var mapOut, wire, disk []float64
	var cpu time.Duration
	var alloc uint64
	var sum float64
	for _, s := range r.jobs {
		sum += s.wall.Seconds()
		cpu += s.after.cpu - s.before.cpu
		alloc += s.after.alloc - s.before.alloc
		if s.failed {
			continue
		}
		st := s.res.Stats
		mapOut = append(mapOut, float64(st.MapOutputBytes))
		wire = append(wire, float64(wireBytes(st.ShuffleBytes, st.Extra)))
		disk = append(disk, float64(st.DiskReadBytes+st.DiskWriteBytes))
	}
	walls := jobSeconds(r.jobs)
	n := float64(len(r.jobs))
	tailV, tailNote := tail(walls)
	allocNote := ""
	if len(inst.pids) > 0 {
		allocNote = "submitting process only"
	}
	return []metric{
		{name: "job_s_p50", unit: "s", value: median(walls), note: fmt.Sprintf("n=%d", len(walls))},
		{name: "job_s_tail", unit: "s", value: tailV, note: tailNote},
		{name: "input_records_per_s", unit: "1/s", value: float64(inst.inputRecords) * float64(len(walls)) / sum},
		{name: "cpu_s_per_job", unit: "s", value: cpu.Seconds() / n},
		{name: "alloc_mb_per_job", unit: "MB", value: float64(alloc) / n / 1e6, note: allocNote},
		{name: "peak_rss_mb", unit: "MB", value: peakRSS(inst.pids) / 1e6},
		{name: "map_output_bytes", unit: "B", value: median(mapOut)},
		{name: "shuffle_wire_bytes", unit: "B", value: median(wire)},
		{name: "disk_rw_bytes", unit: "B", value: median(disk)},
		{name: "setup_s", unit: "s", value: setup, note: fmt.Sprintf("median of %d preparations, each with its warm-up job", preparations)},
	}
}

// wireBytes is what crossed the shuffle: the wire counter when the
// shuffle ran over TCP, otherwise the fetched map-output bytes.
func wireBytes(shuffle int64, extra map[string]int64) int64 {
	if w, ok := extra["mr.shuffleWireBytes"]; ok {
		return w
	}
	return shuffle
}

// printResult prints one line per metric and then the result object,
// which is the last line of standard output.
func printResult(w io.Writer, r loopResult, ms []metric) {
	attempted, failed := r.attempted(), r.failed()
	fmt.Fprintf(w, "jobs attempted=%d failed=%d wrong_output=%d job_fail_ratio=%.4f (set-up %d, untraced %d, traced %d)\n",
		attempted, failed, r.wrong, float64(failed)/float64(attempted), len(r.warmup), len(r.jobs), len(r.traced))
	for _, g := range []struct {
		name string
		jobs []jobSample
	}{{"untraced", r.jobs}, {"traced", r.traced}} {
		if len(g.jobs) > 0 {
			fmt.Fprintf(w, "job_s %s: %s\n", g.name, strings.Trim(fmt.Sprintf("%.3f", jobSeconds(g.jobs)), "[]"))
		}
	}
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		line := fmt.Sprintf("metric %-40s %16.6f %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  # " + m.note
		}
		fmt.Fprintln(w, line)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.wrong == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		panic(err) // only numbers and strings: cannot fail
	}
	fmt.Fprintln(w, string(b))
}
