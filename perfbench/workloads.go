package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/anticombine"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/workloads/querysuggest"
	"repro/internal/workloads/sortwl"
)

// Full-size inputs. Every workload uses the same split and reducer
// counts, so the workloads differ only in program and data path.
const (
	numSplits    = 8
	numReducers  = 8
	qsQueries    = 150000
	qsTopK       = 5
	qsPrefixK    = 5
	sortLines    = 300000
	fleetWorkers = 2
	fleetJobName = "perfbench.qs-anti"
)

// instance is one workload set up for measurement: its input, the
// reference the outputs are checked against, and (for the fleet) the
// warm worker processes.
type instance struct {
	inputRecords int64
	// run executes one job; led is nil for an untraced job.
	run func(led *ledger) (*mr.Result, error)
	// check compares a job's output with the reference.
	check func(*mr.Result) error
	// pids lists the worker processes whose CPU and memory belong to
	// the system under test (none for in-process workloads).
	pids []int
	// wire says the shuffle crosses a TCP wire, so the wire layer's
	// metrics apply.
	wire  bool
	close func()
}

type workload struct {
	name  string
	setup func(seed uint64, scale float64) (*instance, error)
}

var workloads = []workload{
	{"qs-anti", func(seed uint64, scale float64) (*instance, error) {
		return setupQS(seed, scale, qsMode{anti: true})
	}},
	{"qs-orig", func(seed uint64, scale float64) (*instance, error) {
		return setupQS(seed, scale, qsMode{})
	}},
	{"sort-anti", func(seed uint64, scale float64) (*instance, error) {
		return setupSort(seed, scale, false)
	}},
	// The workloads below are run by hand; BENCHMARK.json leaves them
	// out. The TCP shuffle's mux fetcher binds a batch's session to its
	// first member's context (ROADMAP item 1), so about one job in fifty
	// fails at random and two sets of runs cannot agree on the failure
	// count. They move into BENCHMARK.json once that defect is fixed.
	{"qs-orig-tcp", func(seed uint64, scale float64) (*instance, error) {
		return setupQS(seed, scale, qsMode{tcp: true, wireCompression: true})
	}},
	{"sort-anti-tcp", func(seed uint64, scale float64) (*instance, error) {
		return setupSort(seed, scale, true)
	}},
	// The only workload through internal/cluster. Besides the mux
	// defect, on a 2-vCPU host its job times spread across seeds by up
	// to a quarter, the widest bound allowed.
	{"qs-anti-fleet", setupFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func scaled(n int, scale float64) int { return max(numSplits, int(float64(n)*scale)) }

// splitCache holds generated input per (kind, seed, size), so fleet
// workers build a job's splits once per process rather than per job.
var splitCache = struct {
	sync.Mutex
	m map[string][]mr.Split
}{m: make(map[string][]mr.Split)}

func cachedSplits(key string, gen func() []mr.Split) []mr.Split {
	splitCache.Lock()
	defer splitCache.Unlock()
	s, ok := splitCache.m[key]
	if !ok {
		s = gen()
		splitCache.m[key] = s
	}
	return s
}

// populationSeed fixes the query pool, the text vocabulary and their
// popularity. The workload seed picks which records are drawn from that
// population, so seeds vary the sample but not the workload's character:
// a seed-built pool would swing map output by about 25% between seeds,
// as its few most popular queries change length.
const populationSeed = 2014

// sampleQueries draws the n queries of seed's sample: records
// [seed·n, seed·n+n) of the fixed population's log, each an independent
// draw.
func sampleQueries(seed uint64, n int) []string {
	log := datagen.NewQueryLog(datagen.QueryLogConfig{Seed: populationSeed, Queries: qsQueries})
	qs := make([]string, n)
	for i := range qs {
		qs[i] = log.Record(int(seed)*n + i).Query
	}
	return qs
}

// querySplits materializes the sample as in-memory splits whose record
// value is the query string, as querysuggest.Splits streams it.
func querySplits(seed uint64, n int) []mr.Split {
	return cachedSplits(fmt.Sprintf("qs/%d/%d", seed, n), func() []mr.Split {
		return mr.SplitRecords(arenaRecords(sampleQueries(seed, n)), numSplits)
	})
}

// arenaRecords packs the values into one allocation. The input and
// reference stay live through every measured job, so they are kept in
// few objects: each GC cycle of a job then marks the job's own data,
// not per-record objects of the benchmark.
func arenaRecords(vals []string) []mr.Record {
	total := 0
	for _, v := range vals {
		total += len(v)
	}
	arena := make([]byte, 0, total)
	recs := make([]mr.Record, len(vals))
	for i, v := range vals {
		start := len(arena)
		arena = append(arena, v...)
		recs[i].Value = arena[start:len(arena):len(arena)]
	}
	return recs
}

type qsMode struct {
	anti, tcp, wireCompression bool
}

// qsJob builds the Query-Suggestion job. With decorate the user
// functions are timed (before the Anti-Combining wrap, so re-executed
// Map calls inside reduce tasks are timed too).
func qsJob(mode qsMode, decorate bool, led *ledger) *mr.Job {
	job := querysuggest.NewJob(querysuggest.Config{
		TopK: qsTopK, Reducers: numReducers,
		Partitioner: querysuggest.PrefixPartitioner{K: qsPrefixK},
	}, false)
	if decorate {
		decorateFuncs(job, led, !mode.anti)
	}
	if mode.anti {
		job = anticombine.Wrap(job, anticombine.AdaptiveInf())
	}
	job.TCPShuffle = mode.tcp
	job.WireCompression = mode.wireCompression
	return job
}

// runLocal runs job in this process over a fresh in-memory disk,
// timing the disk and codec boundaries when led is set.
func runLocal(job *mr.Job, splits []mr.Split, led *ledger) (*mr.Result, error) {
	var fs iokit.FS = iokit.NewMemFS()
	if led != nil {
		led.tcp = job.TCPShuffle
		fs = &timedFS{inner: fs, led: led}
		if job.Codec != nil {
			job.Codec = &timedCodec{inner: job.Codec, led: led}
		}
	}
	job.FS = fs
	return mr.Run(job, splits)
}

func setupQS(seed uint64, scale float64, mode qsMode) (*instance, error) {
	n := scaled(qsQueries, scale)
	splits := querySplits(seed, n)
	ref := qsReference(seed, n)
	return &instance{
		inputRecords: int64(n),
		run: func(led *ledger) (*mr.Result, error) {
			return runLocal(qsJob(mode, led != nil, led), splits, led)
		},
		check: func(res *mr.Result) error { return checkQS(res, ref) },
		wire:  mode.tcp,
		close: func() {},
	}, nil
}

// qsReference is the expected output, computed sequentially in memory
// without the engine: every prefix of every query, with the top-k
// queries sharing it. It is kept as hashes of prefix and expected line,
// a map the GC does not scan.
func qsReference(seed uint64, n int) qsRef {
	byPrefix := make(map[string]map[string]uint64)
	for _, q := range sampleQueries(seed, n) {
		for p := 1; p <= len(q); p++ {
			counts := byPrefix[q[:p]]
			if counts == nil {
				counts = make(map[string]uint64)
				byPrefix[q[:p]] = counts
			}
			counts[q]++
		}
	}
	ref := qsRef{seed: maphash.MakeSeed(), lines: make(map[uint64]uint64, len(byPrefix))}
	for prefix, counts := range byPrefix {
		ref.lines[maphash.String(ref.seed, prefix)] = maphash.String(ref.seed, querysuggest.FormatTop(counts, qsTopK))
	}
	return ref
}

type qsRef struct {
	seed  maphash.Seed
	lines map[uint64]uint64
}

// checkQS requires every reference prefix exactly once with its
// expected top-k line. Keys ascend strictly within a partition and each
// key sits in the partition its partitioner names, so an equal count
// rules out duplicates.
func checkQS(res *mr.Result, ref qsRef) error {
	part := querysuggest.PrefixPartitioner{K: qsPrefixK}
	n := 0
	for p, recs := range res.Output {
		for i, r := range recs {
			want, ok := ref.lines[maphash.Bytes(ref.seed, r.Key)]
			if !ok {
				return fmt.Errorf("partition %d: unexpected key %q", p, r.Key)
			}
			if maphash.Bytes(ref.seed, r.Value) != want {
				return fmt.Errorf("partition %d key %q: wrong line %q", p, r.Key, r.Value)
			}
			if i > 0 && bytes.Compare(recs[i-1].Key, r.Key) >= 0 {
				return fmt.Errorf("partition %d: key %q out of order", p, r.Key)
			}
			if got := part.Partition(r.Key, len(res.Output)); got != p {
				return fmt.Errorf("key %q in partition %d, partitioner says %d", r.Key, p, got)
			}
			n++
		}
	}
	if n != len(ref.lines) {
		return fmt.Errorf("got %d prefixes, want %d", n, len(ref.lines))
	}
	return nil
}

// setupSort prepares Sort; with tcp its shuffle runs over a raw
// (uncompressed) TCP wire.
func setupSort(seed uint64, scale float64, tcp bool) (*instance, error) {
	n := scaled(sortLines, scale)
	text := datagen.NewRandomText(datagen.RandomTextConfig{Seed: populationSeed, Lines: sortLines})
	lines := make([]string, n)
	for i := range lines {
		lines[i] = text.Line(int(seed)*n + i)
	}
	recs := arenaRecords(lines)
	splits := mr.SplitRecords(recs, numSplits)
	// The reference is the input's order sorted, as indexes into the
	// input arena.
	ref := make([]int32, n)
	for i := range ref {
		ref[i] = int32(i)
	}
	sort.Slice(ref, func(a, b int) bool { return bytes.Compare(recs[ref[a]].Value, recs[ref[b]].Value) < 0 })
	return &instance{
		inputRecords: int64(n),
		run: func(led *ledger) (*mr.Result, error) {
			job := sortwl.NewJob(numReducers)
			if led != nil {
				decorateFuncs(job, led, false)
			}
			job = anticombine.Wrap(job, anticombine.AdaptiveInf())
			job.Codec = codec.Snappy{}
			job.TCPShuffle = tcp
			return runLocal(job, splits, led)
		},
		check: func(res *mr.Result) error { return checkSorted(res, recs, ref) },
		wire:  tcp,
		close: func() {},
	}, nil
}

// checkSorted requires every partition to ascend and the k-way merge of
// the partitions to equal the input lines in sorted order.
func checkSorted(res *mr.Result, input []mr.Record, order []int32) error {
	heads := make([]int, len(res.Output))
	for p, recs := range res.Output {
		for i := 1; i < len(recs); i++ {
			if bytes.Compare(recs[i-1].Key, recs[i].Key) > 0 {
				return fmt.Errorf("partition %d: record %d out of order", p, i)
			}
		}
	}
	for i, idx := range order {
		want := input[idx].Value
		best := -1
		for p, recs := range res.Output {
			if heads[p] < len(recs) && (best < 0 || bytes.Compare(recs[heads[p]].Key, res.Output[best][heads[best]].Key) < 0) {
				best = p
			}
		}
		if best < 0 {
			return fmt.Errorf("output ends after %d of %d lines", i, len(order))
		}
		if got := res.Output[best][heads[best]].Key; !bytes.Equal(got, want) {
			return fmt.Errorf("line %d: got %q, want %q", i, got, want)
		}
		heads[best]++
	}
	for p, recs := range res.Output {
		if heads[p] != len(recs) {
			return fmt.Errorf("partition %d has %d lines beyond the input", p, len(recs)-heads[p])
		}
	}
	return nil
}

// fleetSpec is the registry spec of the fleet workload: workers rebuild
// the identical job and input from it.
type fleetSpec struct {
	Seed     uint64 `json:"seed"`
	Queries  int    `json:"queries"`
	Decorate bool   `json:"decorate"`
}

func init() {
	cluster.RegisterJob(fleetJobName, func(raw []byte) (*mr.Job, []mr.Split, error) {
		var s fleetSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, nil, fmt.Errorf("perfbench: fleet spec: %w", err)
		}
		// Worker-side decorators report through Stats.Extra only: the
		// ledger lives in the submitting process.
		return qsJob(qsMode{anti: true}, s.Decorate, nil), querySplits(s.Seed, s.Queries), nil
	})
}

func setupFleet(seed uint64, scale float64) (*instance, error) {
	n := scaled(qsQueries, scale)
	ref := qsReference(seed, n)
	fleet, err := cluster.NewFleet(cluster.FleetConfig{})
	if err != nil {
		return nil, err
	}
	var (
		procs []*cluster.Process
		once  sync.Once
	)
	stop := func() {
		once.Do(func() {
			fleet.Shutdown()
			for _, p := range procs {
				waitOrKill(p)
			}
			_ = fleet.Close() // shutting down: nothing left to report to
		})
	}
	for i := 0; i < fleetWorkers; i++ {
		p, err := cluster.SpawnSelf(fleet.Addr(), 1)
		if err != nil {
			stop()
			return nil, err
		}
		procs = append(procs, p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fleet.WaitWorkers(ctx, fleetWorkers); err != nil {
		stop()
		return nil, fmt.Errorf("waiting for fleet workers: %w", err)
	}
	pids := make([]int, len(procs))
	for i, p := range procs {
		pids[i] = p.Pid()
	}
	return &instance{
		inputRecords: int64(n),
		run: func(led *ledger) (*mr.Result, error) {
			spec, err := json.Marshal(fleetSpec{Seed: seed, Queries: n, Decorate: led != nil})
			if err != nil {
				return nil, err
			}
			h, err := fleet.Submit(context.Background(), cluster.JobSpec{
				Ref: cluster.JobRef{Name: fleetJobName, Spec: spec},
			})
			if err != nil {
				return nil, err
			}
			return h.Wait(context.Background())
		},
		check: func(res *mr.Result) error { return checkQS(res, ref) },
		wire:  true,
		pids:  pids,
		close: stop,
	}, nil
}

// waitOrKill waits for a worker told to shut down, killing it if it
// has not exited within five seconds.
func waitOrKill(p *cluster.Process) {
	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		// The Wait above reaps the killed process.
		_ = syscall.Kill(p.Pid(), syscall.SIGKILL)
		<-done
	}
}
