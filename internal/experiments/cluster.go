package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/mr"
)

// ClusterOptions configures the multi-process comparison run.
type ClusterOptions struct {
	// Workers is the number of worker subprocesses (antibench -cluster N).
	Workers int
	// SlotsPerWorker is each worker's concurrent task slots (default 2).
	SlotsPerWorker int
	// Kill, when set, SIGKILLs one worker right after it commits its
	// first map task, demonstrating failure recovery end to end.
	Kill bool
}

// ClusterRun is one experiment executed both in-process and across
// worker subprocesses with a real TCP shuffle.
type ClusterRun struct {
	Name    string
	Single  RunMetrics
	Cluster RunMetrics
	// Identical reports whether the two runs' sorted outputs matched
	// byte for byte.
	Identical bool
	// Measured is the cluster run's real shuffle (loopback TCP).
	Measured mr.ShuffleMeasurement
	// PredictedNet is the netsim fair-share prediction for the same
	// shuffle volume on the modeled cluster fabric.
	PredictedNet time.Duration
	// KilledWorker is the worker id killed mid-run (-1 when none).
	KilledWorker int
	// Reexecs counts task attempts beyond the first — retries and
	// re-executions after the kill (0 in an undisturbed run).
	Reexecs int
}

// ClusterCompareResult is the `antibench -cluster N` report.
type ClusterCompareResult struct {
	Workers int
	Runs    []ClusterRun
}

// ClusterCompare runs the cluster-registered experiment jobs twice
// each — once with the in-process engine, once across opts.Workers
// subprocesses — and verifies the outputs are byte-identical. The
// cluster run reports its measured shuffle next to the netsim
// prediction for the same volume, which is what grounds the cost
// model: the simulator's flow accounting can be checked against real
// sockets, not just against itself.
func ClusterCompare(cfg Config, opts ClusterOptions) (*ClusterCompareResult, error) {
	cfg = cfg.normalized()
	if opts.Workers <= 0 {
		opts.Workers = 3
	}
	if opts.SlotsPerWorker <= 0 {
		opts.SlotsPerWorker = 2
	}
	out := &ClusterCompareResult{Workers: opts.Workers}
	for _, name := range []string{ClusterJobWordCount, ClusterJobPrefixSort} {
		run, err := clusterRun(cfg, opts, name)
		if err != nil {
			return nil, fmt.Errorf("cluster compare %s: %w", name, err)
		}
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

func clusterRun(cfg Config, opts ClusterOptions, name string) (ClusterRun, error) {
	ref, err := ClusterRef(name, cfg)
	if err != nil {
		return ClusterRun{}, err
	}

	// Reference: the same registry job through the in-process engine.
	job, splits, err := cluster.BuildJob(ref)
	if err != nil {
		return ClusterRun{}, err
	}
	single, singleRes, err := runJob(cfg, name+" single", job, splits)
	if err != nil {
		return ClusterRun{}, err
	}

	events := make(chan cluster.Event, 4096)
	fleet, err := cluster.NewFleet(cluster.FleetConfig{
		Tracer: cfg.Tracer,
		OnEvent: func(e cluster.Event) {
			select {
			case events <- e:
			default:
			}
		},
	})
	if err != nil {
		return ClusterRun{}, err
	}
	defer fleet.Close()

	// Spawn workers one at a time, waiting for each registration, so
	// worker id i is procs[i] and the kill injector knows whom to shoot.
	procs := make([]*cluster.Process, opts.Workers)
	defer func() {
		for _, p := range procs {
			if p != nil {
				p.Kill()
			}
		}
	}()
	for i := range procs {
		p, serr := cluster.SpawnSelf(fleet.Addr(), opts.SlotsPerWorker)
		if serr != nil {
			return ClusterRun{}, fmt.Errorf("spawning worker: %w", serr)
		}
		procs[i] = p
		if werr := awaitRegistration(events, i); werr != nil {
			return ClusterRun{}, werr
		}
	}

	killed := make(chan int, 1)
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	go func() {
		armed := opts.Kill
		for {
			select {
			case e := <-events:
				if armed && e.Kind == "task-done" && strings.HasPrefix(e.Task, "map/") {
					armed = false
					procs[e.Worker].Kill()
					killed <- e.Worker
				}
			case <-watchCtx.Done():
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := fleet.WaitWorkers(ctx, opts.Workers); err != nil {
		return ClusterRun{}, err
	}
	h, err := fleet.Submit(ctx, cluster.JobSpec{Ref: ref, Exclusive: true})
	if err != nil {
		return ClusterRun{}, err
	}
	clusterRes, err := h.Wait(ctx)
	// Job over (either way): release the workers.
	fleet.Shutdown()
	if err != nil {
		return ClusterRun{}, err
	}
	clusterM, err := metricsFrom(cfg, fmt.Sprintf("%s cluster(%dw)", name, opts.Workers), clusterRes)
	if err != nil {
		return ClusterRun{}, err
	}
	if clusterRes.MeasuredShuffle == nil {
		return ClusterRun{}, fmt.Errorf("cluster run produced no shuffle measurement")
	}

	run := ClusterRun{
		Name:         name,
		Single:       single,
		Cluster:      clusterM,
		Identical:    sameOutput(singleRes, clusterRes),
		Measured:     *clusterRes.MeasuredShuffle,
		PredictedNet: clusterM.Est.NetTime,
		KilledWorker: -1,
	}
	for _, a := range clusterRes.Timeline {
		if a.Attempt > 0 {
			run.Reexecs++
		}
	}
	select {
	case w := <-killed:
		run.KilledWorker = w
	default:
		if opts.Kill {
			return ClusterRun{}, fmt.Errorf("kill was requested but the job finished before any map commit")
		}
	}
	return run, nil
}

func awaitRegistration(events <-chan cluster.Event, worker int) error {
	deadline := time.After(30 * time.Second)
	for {
		select {
		case e := <-events:
			if e.Kind == "register" && e.Worker == worker {
				return nil
			}
		case <-deadline:
			return fmt.Errorf("worker %d did not register within 30s", worker)
		}
	}
}

func sameOutput(a, b *mr.Result) bool {
	ra, rb := a.SortedOutput(), b.SortedOutput()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if !bytes.Equal(ra[i].Key, rb[i].Key) || !bytes.Equal(ra[i].Value, rb[i].Value) {
			return false
		}
	}
	return true
}

// Render writes the single-vs-cluster comparison and the
// measured-vs-predicted shuffle table.
func (r *ClusterCompareResult) Render(w io.Writer) {
	t := Table{
		Title:  fmt.Sprintf("Cluster mode: %d worker processes vs in-process engine", r.Workers),
		Header: []string{"experiment", "mode", "transfer", "disk r+w", "wall", "output", "reexec attempts"},
	}
	for _, run := range r.Runs {
		t.AddRow(run.Name, "single", Bytes(run.Single.ShuffleBytes),
			Bytes(run.Single.DiskRead+run.Single.DiskWrite), Dur(run.Single.Wall), "reference", "-")
		verdict := "IDENTICAL"
		if !run.Identical {
			verdict = "MISMATCH"
		}
		mode := fmt.Sprintf("cluster(%dw)", r.Workers)
		if run.KilledWorker >= 0 {
			mode += fmt.Sprintf(" kill w%d", run.KilledWorker)
		}
		t.AddRow(run.Name, mode, Bytes(run.Cluster.ShuffleBytes),
			Bytes(run.Cluster.DiskRead+run.Cluster.DiskWrite), Dur(run.Cluster.Wall),
			verdict, itoa(int64(run.Reexecs)))
	}
	t.Render(w)

	p := Table{
		Title: "Measured shuffle (loopback TCP) vs netsim prediction (modeled gigabit fabric)",
		Header: []string{"experiment", "bytes", "fetches", "dials",
			"fetch Σ", "extent", "measured MB/s", "netsim predicted", "predicted MB/s"},
	}
	for _, run := range r.Runs {
		m := run.Measured
		p.AddRow(run.Name, Bytes(m.Bytes), itoa(int64(m.Fetches)), itoa(m.Dials),
			Dur(m.FetchTime), Dur(m.Extent), mbps(m.Bytes, m.Extent),
			Dur(run.PredictedNet), mbps(m.Bytes, run.PredictedNet))
	}
	p.Render(w)
}

func mbps(b int64, d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(b)/d.Seconds()/1e6)
}
