// Command perfbench is the repository's job-level benchmark. It runs one
// named workload as a closed loop — one client submits one MapReduce job
// at a time and sends the next only when the previous returns — checks
// every job's output against a reference computed without the engine,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) by name with their units. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload qs-anti --seed 1 --seconds 10 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/mr"
)

func main() {
	cluster.WorkerMainIfSpawned()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeed is the seed results are quoted at. heldOutSeed is never
// used while tuning a change, so a claimed gain can be confirmed on an
// input it was not tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// runTimeout bounds one invocation: a hung job must end the run with an
// error rather than stall whoever is waiting for the result.
const runTimeout = 170 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	outDir   string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: qs-anti, qs-orig, sort-anti, qs-orig-tcp, sort-anti-tcp or qs-anti-fleet")
	fs.Uint64Var(&o.seed, "seed", defaultSeed,
		fmt.Sprintf("seed the workload input is drawn from (%d is held out to confirm claims)", heldOutSeed))
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the measured job loop runs")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced loop and prints per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "input size as a share of the full workload (tests use a tiny share)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory the Chrome trace is written to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := findWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 || o.scale <= 0 {
		return o, errors.New("--seconds and --scale must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var live atomic.Pointer[instance]
	timer := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", runTimeout)
		if inst := live.Load(); inst != nil {
			inst.close() // stops the fleet's worker processes
		}
		os.Exit(1)
	})
	defer timer.Stop()

	fmt.Fprintln(stdout, machineHeader(o))
	w, _ := findWorkload(o.workload)
	var res loopResult
	inst, setup, err := setUp(w, o, &res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	live.Store(inst)
	defer inst.close()

	var ms []metric
	if o.trace {
		ms, err = measureTraced(inst, o, &res, stdout)
	} else {
		measure(inst, o.seconds, &res)
		ms = endToEnd(inst, res, setup)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: job failed:", e)
	}
	printResult(stdout, res, ms)
	return 0
}

// preparations is how many times a run sets its workload up; setup_s
// takes their median.
const preparations = 3

// setUp prepares the workload several times — input, reference
// output and, for the fleet, its worker processes — each followed by a
// warm-up job, closing all but the last preparation. It returns the
// median time of a preparation plus its warm-up job: a single first
// job's time spreads too widely to be the set-up time on its own.
// Warm-up jobs are checked and counted like every other job, so a
// failing one shows in the result rather than ending the run.
func setUp(w workload, o options, r *loopResult) (*instance, float64, error) {
	var (
		inst  *instance
		times []float64
	)
	for i := 0; i < preparations; i++ {
		if inst != nil {
			inst.close()
		}
		splitCache.Lock()
		clear(splitCache.m)
		splitCache.Unlock()
		start := time.Now()
		var err error
		if inst, err = w.setup(o.seed, o.scale); err != nil {
			return nil, 0, err
		}
		prep := time.Since(start)
		warm := runJob(inst, nil, r)
		r.warmup = append(r.warmup, warm)
		times = append(times, (prep + warm.wall).Seconds())
	}
	return inst, median(times), nil
}

// jobSample is one job of the measured loop.
type jobSample struct {
	wall          time.Duration
	before, after cost
	res           *mr.Result
	failed        bool
}

type loopResult struct {
	warmup []jobSample // set-up's jobs, counted but not measured
	jobs   []jobSample // untraced jobs
	traced []jobSample
	wrong  int // jobs whose output differed from the reference
	errs   []error
}

func (r *loopResult) attempted() int { return len(r.warmup) + len(r.jobs) + len(r.traced) }

func (r *loopResult) failed() int {
	n := 0
	for _, jobs := range [][]jobSample{r.warmup, r.jobs, r.traced} {
		for _, s := range jobs {
			if s.failed {
				n++
			}
		}
	}
	return n
}

// runJob runs and checks one job, sampling the costs around the job
// alone (the check is the benchmark's work, not the system's). Each job
// starts after a collection, so no job pays for collecting the garbage
// the previous job and its check left.
func runJob(inst *instance, led *ledger, r *loopResult) jobSample {
	runtime.GC()
	before := sampleCost(inst.pids)
	start := time.Now()
	res, err := inst.run(led)
	wall := time.Since(start)
	after := sampleCost(inst.pids)
	s := jobSample{wall: wall, before: before, after: after, res: res}
	if err == nil {
		if err = inst.check(res); err != nil {
			r.wrong++
		}
		// Only the counters and timeline are kept past the check.
		res.Output = nil
	}
	if err != nil {
		s.failed = true
		r.errs = append(r.errs, err)
	}
	return s
}

// measure runs untraced jobs back to back for the given seconds.
func measure(inst *instance, seconds float64, r *loopResult) {
	start := time.Now()
	for len(r.jobs) == 0 || time.Since(start).Seconds() < seconds {
		r.jobs = append(r.jobs, runJob(inst, nil, r))
	}
}
