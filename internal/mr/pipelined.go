package mr

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// MapTaskName / FetchTaskName / ReduceTaskName are the canonical task
// names of the engine's task graph, shared with Result.Timeline, trace
// spans, and the cluster runtime's coordinator DAG.
func MapTaskName(i int) string      { return fmt.Sprintf("map/%d", i) }
func FetchTaskName(p, i int) string { return fmt.Sprintf("fetch/%d/%d", p, i) }
func ReduceTaskName(p int) string   { return fmt.Sprintf("reduce/%d", p) }

// mapOut is a map task's committed value.
type mapOut struct {
	segs []segment
	dur  time.Duration
}

// runPipelined executes the job as an event-driven task graph:
//
//	map/i  ──►  fetch/p/i  ──►  reduce/p
//
// One fetch task exists per (reduce partition, map task); it becomes
// runnable the moment its map task commits, so shuffle fetches overlap
// still-running map tasks instead of waiting for a global map barrier.
// A reduce task merges once all of its partition's fetches are local.
// Task failures retry with backoff when transient and the job's attempt
// budget allows; straggling map attempts may be speculatively
// re-executed when Job.Speculative is set.
func runPipelined(ctx context.Context, env *runEnv) (*Result, error) {
	j := env.job
	nMap := len(env.splits)
	nRed := j.NumReduceTasks
	_, localTransport := env.transport.(LocalTransport)

	// shufflePer is written concurrently by a partition's fetch tasks.
	shufflePer := make([]int64, nRed)

	tasks := make([]sched.Task, 0, nMap+nMap*nRed+nRed)
	for i := 0; i < nMap; i++ {
		i := i
		tasks = append(tasks, sched.Task{
			Name:         MapTaskName(i),
			Group:        TaskGroupMap,
			Speculatable: j.Speculative,
			Run: func(ctx context.Context, tc *sched.TaskContext) (any, error) {
				t0 := time.Now()
				segs, err := runMapTask(ctx, j, env.fs, env.counters, i, tc.Attempt, env.splits[i])
				if err != nil {
					return nil, err
				}
				return mapOut{segs: segs, dur: time.Since(t0)}, nil
			},
		})
	}
	for p := 0; p < nRed; p++ {
		for i := 0; i < nMap; i++ {
			if j.AlignedInput && i != p {
				// Aligned jobs route map i's output wholly to partition
				// i (enforced in runMapTask), so off-diagonal fetch
				// tasks would only ever carry empty segment lists —
				// skip them and the all-to-all edge set collapses to
				// one pass-through edge per partition.
				continue
			}
			p, i := p, i
			tasks = append(tasks, sched.Task{
				Name:  FetchTaskName(p, i),
				Group: TaskGroupFetch,
				Deps:  []string{MapTaskName(i)},
				Run: func(ctx context.Context, tc *sched.TaskContext) (any, error) {
					t0 := time.Now()
					defer func() { env.counters.reduceTaskNs.Add(time.Since(t0).Nanoseconds()) }()
					var segs []segment
					for _, s := range tc.Dep(MapTaskName(i)).(mapOut).segs {
						if s.partition == p {
							segs = append(segs, s)
						}
					}
					if len(segs) == 0 {
						return []segment(nil), nil
					}
					if err := accountShuffle(env.counters, env.fs, segs); err != nil {
						return nil, err
					}
					var flow int64
					for _, s := range segs {
						size, err := j.FS.Size(s.file)
						if err != nil {
							return nil, err
						}
						flow += size
					}
					atomic.AddInt64(&shufflePer[p], flow)
					if !localTransport {
						prefix := fmt.Sprintf("%s/r%04d/m%04d.a%d.fetch", j.Workspace, p, i, tc.Attempt)
						fetched, err := fetchSegments(ctx, env.fs, env.transport, j, env.counters, p, prefix, segs)
						if err != nil {
							return nil, err
						}
						segs = fetched
					}
					return segs, nil
				},
			})
		}
	}
	for p := 0; p < nRed; p++ {
		p := p
		var deps []string
		if j.AlignedInput {
			deps = []string{FetchTaskName(p, p)}
		} else {
			deps = make([]string, nMap)
			for i := range deps {
				deps[i] = FetchTaskName(p, i)
			}
		}
		fetchDeps := deps
		tasks = append(tasks, sched.Task{
			Name:  ReduceTaskName(p),
			Group: TaskGroupReduce,
			Deps:  deps,
			Run: func(ctx context.Context, tc *sched.TaskContext) (any, error) {
				t0 := time.Now()
				defer func() { env.counters.reduceTaskNs.Add(time.Since(t0).Nanoseconds()) }()
				// Assemble segments in map-task order: the k-way merge
				// then sees one stream order whatever order the maps
				// completed in, whatever retries or parallelism ran,
				// and the same order as the cluster runtime's reduce.
				var segs []segment
				for _, dep := range fetchDeps {
					segs = append(segs, tc.Dep(dep).([]segment)...)
				}
				return reduceMerge(ctx, j, env.fs, env.counters, p, tc.Attempt, segs)
			},
		})
	}

	cfg := sched.Config{
		Workers:     j.Parallelism,
		MaxAttempts: j.MaxTaskAttempts,
		Backoff:     j.RetryBackoff,
		Speculate:   j.Speculative,
		Tracer:      j.Tracer,
	}
	if j.MaxTaskAttempts > 1 {
		cfg.Retryable = isTransientErr
	}
	report, err := sched.Run(ctx, tasks, cfg)
	if err != nil {
		return nil, err
	}

	mapTimes := make([]time.Duration, nMap)
	for i := 0; i < nMap; i++ {
		mapTimes[i] = report.Value(MapTaskName(i)).(mapOut).dur
	}
	output := make([][]Record, nRed)
	reduceTimes := make([]time.Duration, nRed)
	for p := 0; p < nRed; p++ {
		output[p] = report.Value(ReduceTaskName(p)).([]Record)
		reduceTimes[p] = report.TaskDuration(ReduceTaskName(p))
	}
	flows := make([]int64, nRed)
	for p := range flows {
		flows[p] = atomic.LoadInt64(&shufflePer[p])
	}
	return &Result{
		Output:              output,
		ShufflePerPartition: flows,
		ReduceTaskTimes:     reduceTimes,
		MapTaskTimes:        mapTimes,
		Timeline:            report.Attempts,
	}, nil
}
