package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mr"
	"repro/internal/sched"
)

// TestMain lets the test binary serve as its own worker executable:
// subprocess tests spawn it with the cluster env vars set, and
// WorkerMainIfSpawned diverts those copies into RunWorker before any
// test runs.
func TestMain(m *testing.M) {
	WorkerMainIfSpawned()
	os.Exit(m.Run())
}

// testSpec parameterizes the registered test job. Both the test
// process (coordinator) and spawned workers rebuild identical jobs and
// splits from it.
type testSpec struct {
	Splits     int
	Lines      int // per split
	Reducers   int
	MapDelayUs int // per-record mapper sleep, to stretch map tasks
}

const testJobName = "cluster-test-wordcount"

func init() {
	RegisterJob(testJobName, buildTestJob)
}

func buildTestJob(spec []byte) (*mr.Job, []mr.Split, error) {
	var s testSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, nil, err
	}
	words := []string{
		"ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen",
		"ibex", "jay", "kite", "lynx", "mole", "newt", "owl", "pug",
	}
	// Deterministic LCG so every process derives identical splits.
	seed := uint64(0x5eed)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	splits := make([]mr.Split, s.Splits)
	for i := range splits {
		recs := make([]mr.Record, s.Lines)
		for l := range recs {
			var b strings.Builder
			for w := 0; w < 8; w++ {
				if w > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(words[next()%uint64(len(words))])
			}
			recs[l] = mr.Record{Value: []byte(b.String())}
		}
		splits[i] = &mr.MemSplit{Recs: recs}
	}
	delay := time.Duration(s.MapDelayUs) * time.Microsecond
	sum := mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
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
	})
	job := &mr.Job{
		Name: testJobName,
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error {
			if delay > 0 {
				time.Sleep(delay)
			}
			for _, w := range strings.Fields(string(value)) {
				if err := out.Emit([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		}),
		NewReducer:     sum,
		NumReduceTasks: s.Reducers,
		Deterministic:  true,
	}
	return job, splits, nil
}

func mustSpec(t *testing.T, s testSpec) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// singleProcessRun is the reference: the same registry job executed by
// the in-process engine.
func singleProcessRun(t *testing.T, ref JobRef) *mr.Result {
	t.Helper()
	job, splits, err := BuildJob(ref)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mr.Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameOutput(t *testing.T, got, want *mr.Result) {
	t.Helper()
	g, w := got.SortedOutput(), want.SortedOutput()
	if len(g) != len(w) {
		t.Fatalf("output length %d, want %d", len(g), len(w))
	}
	for i := range g {
		if !bytes.Equal(g[i].Key, w[i].Key) || !bytes.Equal(g[i].Value, w[i].Value) {
			t.Fatalf("record %d: got %s, want %s", i, mr.FormatRecord(g[i]), mr.FormatRecord(w[i]))
		}
	}
}

// events wires a fleet's OnEvent to a drop-on-full channel.
func events() (func(Event), <-chan Event) {
	ch := make(chan Event, 4096)
	return func(e Event) {
		select {
		case ch <- e:
		default:
		}
	}, ch
}

// awaitEvent blocks for the first event matching pred.
func awaitEvent(t *testing.T, ch <-chan Event, what string, pred func(Event) bool) Event {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case e := <-ch:
			if pred(e) {
				return e
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClusterMatchesSingleProcess: two in-process workers execute the
// job over real TCP shuffle; output must be byte-identical to the
// single-process engine, and the measured shuffle must be populated
// with pooled (dials < fetches) transfers.
func TestClusterMatchesSingleProcess(t *testing.T) {
	ref := JobRef{Name: testJobName, Spec: mustSpec(t, testSpec{
		Splits: 8, Lines: 120, Reducers: 4,
	})}
	f, err := NewFleet(FleetConfig{HeartbeatEvery: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, workerErr := fleetWorkers(t, ctx, f, 2, 2)

	res, err := runExclusive(ctx, f, ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Errorf("worker: %v", err)
		}
	}

	assertSameOutput(t, res, singleProcessRun(t, ref))

	m := res.MeasuredShuffle
	if m == nil {
		t.Fatal("cluster run must populate MeasuredShuffle")
	}
	if m.Bytes <= 0 || m.Fetches <= 0 {
		t.Errorf("measured shuffle empty: %+v", m)
	}
	if m.Bytes != res.Stats.ShuffleBytes {
		t.Errorf("measured bytes %d != metered shuffle bytes %d", m.Bytes, res.Stats.ShuffleBytes)
	}
	if m.Dials <= 0 || m.Dials >= int64(m.Fetches) {
		t.Errorf("dials %d vs fetches %d: connection pool should dial fewer times than it fetches", m.Dials, m.Fetches)
	}
	if m.Extent <= 0 || m.FetchTime <= 0 {
		t.Errorf("measured shuffle times empty: %+v", m)
	}
	var shufflePer int64
	for _, b := range res.ShufflePerPartition {
		shufflePer += b
	}
	if shufflePer != m.Bytes {
		t.Errorf("ShufflePerPartition sums to %d, measured %d", shufflePer, m.Bytes)
	}
}

// TestClusterRejectsUnknownJob: submitting an unregistered job fails
// up front instead of hanging workers.
func TestClusterRejectsUnknownJob(t *testing.T) {
	f, err := NewFleet(FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Submit(context.Background(), JobSpec{Ref: JobRef{Name: "no-such-job"}}); err == nil {
		t.Fatal("expected unknown-job error")
	}
}

// runExclusive runs ref as the fleet's only job, the one-shot shape:
// submit it exclusively, wait for it, then release the workers.
func runExclusive(ctx context.Context, f *Fleet, ref JobRef) (*mr.Result, error) {
	h, err := f.Submit(ctx, JobSpec{Ref: ref, Exclusive: true})
	if err != nil {
		return nil, err
	}
	res, err := h.Wait(ctx)
	f.Shutdown()
	return res, err
}

// killableCluster spawns n subprocess workers one at a time, waiting
// for each registration so worker IDs map to processes
// deterministically (ID i ↔ procs[i]).
func killableCluster(t *testing.T, f *Fleet, ch <-chan Event, n int) []*Process {
	t.Helper()
	procs := make([]*Process, n)
	for i := 0; i < n; i++ {
		p, err := SpawnSelf(f.Addr(), 2)
		if err != nil {
			t.Fatalf("spawning worker: %v", err)
		}
		procs[i] = p
		want := i
		awaitEvent(t, ch, fmt.Sprintf("worker %d registration", i), func(e Event) bool {
			return e.Kind == "register" && e.Worker == want
		})
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Kill() // idempotent enough: already-exited workers just reap
		}
	})
	return procs
}

// TestWorkerKillMidMap kills a worker right after it commits its first
// map task, while map tasks are still running everywhere. The
// coordinator must detect the death via missed heartbeats, re-place
// the worker's in-flight leases, re-execute lost map output if any
// fetches still needed it, and deliver byte-identical output.
func TestWorkerKillMidMap(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster test; skipped in -short mode")
	}
	ref := JobRef{Name: testJobName, Spec: mustSpec(t, testSpec{
		Splits: 12, Lines: 150, Reducers: 4, MapDelayUs: 300,
	})}
	onEvent, ch := events()
	f, err := NewFleet(FleetConfig{HeartbeatEvery: 25 * time.Millisecond, OnEvent: onEvent})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	procs := killableCluster(t, f, ch, 3)

	done := make(chan struct{})
	var res *mr.Result
	var runErr error
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	go func() {
		res, runErr = runExclusive(ctx, f, ref)
		close(done)
	}()

	// Kill the worker that commits the first map task.
	e := awaitEvent(t, ch, "first map commit", func(e Event) bool {
		return e.Kind == "task-done" && strings.HasPrefix(e.Task, "map/")
	})
	if err := procs[e.Worker].Kill(); err != nil {
		t.Fatalf("killing worker %d: %v", e.Worker, err)
	}
	awaitEvent(t, ch, "worker death detection", func(ev Event) bool {
		return ev.Kind == "worker-dead" && ev.Worker == e.Worker
	})

	<-done
	if runErr != nil {
		t.Fatalf("job failed after worker kill: %v", runErr)
	}
	assertSameOutput(t, res, singleProcessRun(t, ref))
}

// TestWorkerKillMidShuffle kills the worker that just localized the
// first fetch — a reduce partition's home. Its fetched segments and
// map outputs die with it; the coordinator must re-home the partition,
// re-execute the lost dependencies (visible as dep-lost attempts in
// the timeline), and still produce byte-identical output.
func TestWorkerKillMidShuffle(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster test; skipped in -short mode")
	}
	ref := JobRef{Name: testJobName, Spec: mustSpec(t, testSpec{
		Splits: 12, Lines: 150, Reducers: 4, MapDelayUs: 300,
	})}
	onEvent, ch := events()
	f, err := NewFleet(FleetConfig{HeartbeatEvery: 25 * time.Millisecond, OnEvent: onEvent})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	procs := killableCluster(t, f, ch, 3)

	done := make(chan struct{})
	var res *mr.Result
	var runErr error
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	go func() {
		res, runErr = runExclusive(ctx, f, ref)
		close(done)
	}()

	e := awaitEvent(t, ch, "first fetch commit", func(e Event) bool {
		return e.Kind == "task-done" && strings.HasPrefix(e.Task, "fetch/")
	})
	if err := procs[e.Worker].Kill(); err != nil {
		t.Fatalf("killing worker %d: %v", e.Worker, err)
	}
	awaitEvent(t, ch, "worker death detection", func(ev Event) bool {
		return ev.Kind == "worker-dead" && ev.Worker == e.Worker
	})

	<-done
	if runErr != nil {
		t.Fatalf("job failed after worker kill: %v", runErr)
	}
	assertSameOutput(t, res, singleProcessRun(t, ref))

	// The killed worker held committed fetch output (that's what we
	// waited for), so its partition's reduce — or a later fetch — must
	// have hit the dependency-loss path.
	sawDepLost := false
	for _, a := range res.Timeline {
		if a.Outcome == sched.OutcomeDepLost {
			sawDepLost = true
			break
		}
	}
	if !sawDepLost {
		t.Error("timeline shows no dep-lost attempt; worker kill did not exercise re-execution")
	}
}
