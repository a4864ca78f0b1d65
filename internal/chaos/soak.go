package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/sched"
)

// The chaos soak: run the same deterministic word-count job twice —
// once clean, once under a seeded fault schedule — and hold the chaotic
// run to three invariants:
//
//  1. output byte-identical to the clean run (corruption may slow the
//     job, never change its answer);
//  2. zero leaked file handles and zero orphan files (failed attempts
//     clean up completely);
//  3. bounded attempts (retries stay within the task budget; chaos
//     cannot spin the scheduler).
//
// Any violation surfaces as an error that embeds the seed and the full
// injected-fault schedule, so a failing soak is a reproducible bug
// report: re-run with the same seed and the same faults fire.

// SoakJobName is the registry name of the soak job, shared by the
// coordinator and (in-process) workers of cluster soaks.
const SoakJobName = "chaos-soak"

// soakSpec parameterizes the soak job. Sized so each map task spills
// several runs under the small sort buffer and per-(map, partition)
// segments clear the data plane's corruption threshold.
type soakSpec struct {
	Splits   int
	Lines    int
	Reducers int
}

func defaultSoakSpec() soakSpec { return soakSpec{Splits: 6, Lines: 300, Reducers: 4} }

func init() {
	cluster.RegisterJob(SoakJobName, buildSoakJob)
}

// buildSoakJob is the registered soak job builder: deterministic LCG
// word data (identical in every process), word-count map/reduce, a
// small sort buffer and merge factor so spill, multi-pass merge, and
// shuffle paths all run, and a retry budget wide enough to outlast the
// fault budget.
func buildSoakJob(spec []byte) (*mr.Job, []mr.Split, error) {
	var s soakSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, nil, err
	}
	words := []string{
		"anti", "combine", "map", "reduce", "shuffle", "spill", "merge",
		"segment", "lease", "worker", "fault", "chaos", "seed", "frame",
		"verify", "retry",
	}
	seed := uint64(0xc4a05)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	splits := make([]mr.Split, s.Splits)
	for i := range splits {
		recs := make([]mr.Record, s.Lines)
		for l := range recs {
			var b strings.Builder
			for w := 0; w < 10; w++ {
				if w > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(words[next()%uint64(len(words))])
			}
			recs[l] = mr.Record{Value: []byte(b.String())}
		}
		splits[i] = &mr.MemSplit{Recs: recs}
	}
	job := &mr.Job{
		Name: SoakJobName,
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error {
			for _, w := range strings.Fields(string(value)) {
				if err := out.Emit([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		}),
		NewReducer: mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
			total := 0
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return err
				}
				total += n
			}
			return out.Emit(key, []byte(strconv.Itoa(total)))
		}),
		NumReduceTasks:  s.Reducers,
		Deterministic:   true,
		SortBufferBytes: 16 << 10,
		MergeFactor:     3,
		MaxTaskAttempts: 8,
		RetryBackoff:    time.Millisecond,
	}
	return job, splits, nil
}

// SoakReport summarizes one surviving soak run.
type SoakReport struct {
	Seed     uint64
	Profile  string
	Faults   int
	Counts   map[string]int
	Attempts int
	Schedule string // full Describe() of the schedule
}

// soakErr wraps an invariant violation with the reproduction recipe.
func soakErr(s *Schedule, format string, args ...any) error {
	return fmt.Errorf("%s [%s]", fmt.Sprintf(format, args...), s.Describe())
}

// SoakInProcess runs one seeded soak on the in-process engine: chaos on
// the task filesystem and the TCP shuffle data plane, invariants
// checked against a clean run of the identical job.
func SoakInProcess(seed uint64, prof Profile, tracer *obs.Tracer) (*SoakReport, error) {
	spec, err := json.Marshal(defaultSoakSpec())
	if err != nil {
		return nil, err
	}

	cleanJob, cleanSplits, err := buildSoakJob(spec)
	if err != nil {
		return nil, err
	}
	cleanFS := iokit.NewMemFS()
	cleanJob.FS = cleanFS
	// Same transport as the chaotic run, so the two leave the same
	// on-disk layout (fetch files included) for the orphan comparison.
	cleanJob.TCPShuffle = true
	clean, err := mr.Run(cleanJob, cleanSplits)
	if err != nil {
		return nil, fmt.Errorf("chaos: clean reference run failed: %w", err)
	}
	cleanFiles, err := cleanFS.List()
	if err != nil {
		return nil, err
	}

	s := New(seed, prof)
	s.SetTracer(tracer)
	job, splits, err := buildSoakJob(spec)
	if err != nil {
		return nil, err
	}
	mem := iokit.NewMemFS()
	tracked := &iokit.TrackFS{Inner: s.WrapFS(mem)}
	job.FS = tracked
	job.TCPShuffle = true
	job.WrapShuffleListener = s.WrapListener
	// Compression is requested only on the chaotic run: output must
	// stay byte-identical to the uncompressed clean reference, which is
	// exactly the transparency the wire codec promises — and it puts
	// compressed frames in the fault path.
	job.WireCompression = true
	job.Tracer = tracer

	res, err := mr.Run(job, splits)
	if err != nil {
		return nil, soakErr(s, "chaos: job failed under injected faults: %v", err)
	}
	if err := compareOutput(clean, res); err != nil {
		return nil, soakErr(s, "%v", err)
	}
	if n := tracked.OpenHandles(); n != 0 {
		return nil, soakErr(s, "chaos: %d file handles leaked", n)
	}
	files, err := mem.List()
	if err != nil {
		return nil, err
	}
	if err := compareFiles(cleanFiles, files); err != nil {
		return nil, soakErr(s, "%v", err)
	}
	if err := checkAttempts(res.Timeline, job.MaxTaskAttempts, s); err != nil {
		return nil, err
	}
	return &SoakReport{
		Seed: seed, Profile: s.prof.Name, Faults: s.InjectedFaults(),
		Counts: s.Counts(), Attempts: len(res.Timeline), Schedule: s.Describe(),
	}, nil
}

// SoakCluster runs one seeded soak on the multi-process runtime shape:
// a fleet and three in-process workers over real sockets, with
// chaos on every worker's filesystem and data-plane listener, plus at
// most one scheduled worker crash and any number of stragglers.
func SoakCluster(seed uint64, prof Profile, tracer *obs.Tracer) (*SoakReport, error) {
	const nWorkers = 3
	spec, err := json.Marshal(defaultSoakSpec())
	if err != nil {
		return nil, err
	}
	ref := cluster.JobRef{Name: SoakJobName, Spec: spec}

	cleanJob, cleanSplits, err := buildSoakJob(spec)
	if err != nil {
		return nil, err
	}
	clean, err := mr.Run(cleanJob, cleanSplits)
	if err != nil {
		return nil, fmt.Errorf("chaos: clean reference run failed: %w", err)
	}

	s := New(seed, prof)
	s.SetTracer(tracer)
	// Fast heartbeats find scheduled crashes quickly; the wide miss
	// budget keeps slow-but-alive workers (race detector, loaded CI)
	// from being declared dead spuriously.
	fleet, err := cluster.NewFleet(cluster.FleetConfig{
		HeartbeatEvery: 25 * time.Millisecond, HeartbeatMiss: 20,
		Tracer: tracer,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Process-layer plans. At most one worker crashes: the soak proves
	// recovery, not survival of a fully dead cluster.
	plans := make([]WorkerPlan, nWorkers)
	crashed := -1
	for i := range plans {
		plans[i] = s.PlanWorker(i)
		if plans[i].Crash {
			if crashed >= 0 {
				plans[i].Crash = false
			} else {
				crashed = i
			}
		}
	}

	trackers := make([]*iokit.TrackFS, nWorkers)
	workerErr := make(chan error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		fs := s.WrapFS(iokit.NewMemFS())
		if plans[i].SlowEvery > 0 {
			fs = s.WrapFSDelayed(fs, plans[i].SlowEvery)
		}
		trackers[i] = &iokit.TrackFS{Inner: fs}
		wctx := ctx
		if plans[i].Crash {
			var wcancel context.CancelFunc
			wctx, wcancel = context.WithCancel(ctx)
			defer wcancel()
			time.AfterFunc(plans[i].CrashAfter, wcancel)
		}
		opts := cluster.WorkerOptions{
			Coordinator:     fleet.Addr(),
			Slots:           2,
			FS:              trackers[i],
			WrapListener:    s.WrapListener,
			WireCompression: true,
		}
		go func() { workerErr <- cluster.RunWorker(wctx, opts) }()
	}

	if err := fleet.WaitWorkers(ctx, nWorkers); err != nil {
		return nil, soakErr(s, "chaos: workers did not register: %v", err)
	}
	h, err := fleet.Submit(ctx, cluster.JobSpec{Ref: ref, MaxTaskAttempts: 8, Exclusive: true})
	if err != nil {
		return nil, err
	}
	res, err := h.Wait(ctx)
	// Job over (either way): release the workers before waiting on them.
	fleet.Shutdown()
	for i := 0; i < nWorkers; i++ {
		<-workerErr // workers exit on shutdown, crash, or fleet close
	}
	if err != nil {
		return nil, soakErr(s, "chaos: cluster job failed under injected faults: %v", err)
	}
	if err := compareOutput(clean, res); err != nil {
		return nil, soakErr(s, "%v", err)
	}
	for i, tr := range trackers {
		if n := tr.OpenHandles(); n != 0 {
			return nil, soakErr(s, "chaos: worker %d leaked %d file handles", i, n)
		}
		files, err := tr.List()
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if strings.Contains(f, ".pass") {
				return nil, soakErr(s, "chaos: worker %d orphaned merge intermediate %s", i, f)
			}
		}
	}
	if err := checkAttempts(res.Timeline, 8, s); err != nil {
		return nil, err
	}
	return &SoakReport{
		Seed: seed, Profile: s.prof.Name, Faults: s.InjectedFaults(),
		Counts: s.Counts(), Attempts: len(res.Timeline), Schedule: s.Describe(),
	}, nil
}

// compareOutput checks byte-identical sorted output between the clean
// reference and the chaotic run.
func compareOutput(clean, chaotic *mr.Result) error {
	co, ro := clean.SortedOutput(), chaotic.SortedOutput()
	if len(co) != len(ro) {
		return fmt.Errorf("chaos: output length differs: clean %d, chaotic %d", len(co), len(ro))
	}
	for i := range co {
		if !bytes.Equal(co[i].Key, ro[i].Key) || !bytes.Equal(co[i].Value, ro[i].Value) {
			return fmt.Errorf("chaos: output record %d differs: clean %s, chaotic %s",
				i, mr.FormatRecord(co[i]), mr.FormatRecord(ro[i]))
		}
	}
	return nil
}

// attemptMarker strips per-attempt name decorations (".a<n>"), mapping
// any attempt's files onto the attempt-0 layout.
var attemptMarker = regexp.MustCompile(`\.a\d+`)

// compareFiles demands the chaotic run's surviving files be exactly the
// clean run's, modulo attempt markers: every failed attempt must have
// removed everything it wrote, and nothing a successful attempt needs
// may be missing.
func compareFiles(clean, chaotic []string) error {
	norm := func(files []string) []string {
		out := make([]string, len(files))
		for i, f := range files {
			out[i] = attemptMarker.ReplaceAllString(f, "")
		}
		sort.Strings(out)
		return out
	}
	c, g := norm(clean), norm(chaotic)
	if len(c) != len(g) {
		return fmt.Errorf("chaos: %d files survive, clean run leaves %d (orphans or missing output)", len(g), len(c))
	}
	for i := range c {
		if c[i] != g[i] {
			return fmt.Errorf("chaos: surviving file set diverges at %q (clean has %q)", g[i], c[i])
		}
	}
	return nil
}

// checkAttempts bounds scheduler work: per task, attempts that charge
// the budget (everything but dep-lost relaunches) must stay within
// maxAttempts.
func checkAttempts(timeline []sched.Attempt, maxAttempts int, s *Schedule) error {
	perTask := make(map[string]int)
	for _, a := range timeline {
		if a.Outcome == sched.OutcomeDepLost {
			continue
		}
		perTask[a.Task]++
	}
	for task, n := range perTask {
		if n > maxAttempts {
			return soakErr(s, "chaos: task %s ran %d budgeted attempts, cap is %d", task, n, maxAttempts)
		}
	}
	return nil
}
