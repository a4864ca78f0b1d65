package mr

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/iokit"
	"repro/internal/sched"
)

// orderedMapper emits (word, task ID) for every word of its input.
// Tasks with lower IDs first sleep longer, by unit per task, so with
// several tasks in flight map tasks finish in reverse ID order.
type orderedMapper struct {
	MapperBase
	info  *TaskInfo
	tasks int
	unit  time.Duration
}

func (m *orderedMapper) Setup(info *TaskInfo, out Emitter) error {
	m.info = info
	return nil
}

func (m *orderedMapper) Map(key, value []byte, out Emitter) error {
	time.Sleep(time.Duration(m.tasks-1-m.info.TaskID) * m.unit)
	id := []byte(strconv.Itoa(m.info.TaskID))
	for _, w := range strings.Fields(string(value)) {
		if err := out.Emit([]byte(w), id); err != nil {
			return err
		}
	}
	return nil
}

// joinValues emits each key once with its values joined in the order
// the merge delivers them, so the output shows the merge stream order.
var joinValues = NewReduceFunc(func(key []byte, values ValueIter, out Emitter) error {
	var joined []byte
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		if joined != nil {
			joined = append(joined, ',')
		}
		joined = append(joined, v...)
	}
	return out.Emit(key, joined)
})

// TestSchedulerEquivalence is the A/B harness for task scheduling:
// across codecs, transports, spill pressure, and parallelism, a job
// whose map tasks finish in reverse order must produce byte-identical
// sorted output, identical logical counters, and identical
// per-partition flows to the same job run without the delays. The
// job's output lists each word's map-task IDs in merge order, and the
// reduce merges committed map output in map-task order, so completion
// order must not show.
func TestSchedulerEquivalence(t *testing.T) {
	input := mapPathInput()
	for _, cc := range []struct {
		name string
		c    codec.Codec
	}{{"identity", nil}, {"snappy", codec.Snappy{}}} {
		for _, tcp := range []bool{false, true} {
			for _, tinyBuf := range []bool{false, true} {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/tcp=%v/tiny=%v/par=%d", cc.name, tcp, tinyBuf, par)
					t.Run(name, func(t *testing.T) {
						mk := func(reordered bool) *Job {
							unit := time.Duration(0)
							if reordered {
								unit = 5 * time.Millisecond
							}
							job := wordCountJob(false)
							job.NewMapper = func() Mapper {
								return &orderedMapper{tasks: len(input), unit: unit}
							}
							job.NewCombiner = joinValues
							job.NewReducer = joinValues
							job.Codec = cc.c
							job.TCPShuffle = tcp
							job.Parallelism = par
							if tinyBuf {
								job.SortBufferBytes = 1 << 10
							}
							return job
						}
						undelayed := mustRun(t, mk(false), input)
						reordered := mustRun(t, mk(true), input)
						if par > 1 && !mapsFinishedOutOfOrder(reordered.Timeline) {
							t.Fatalf("map tasks finished in ID order; the fixture did not reorder them")
						}
						assertSameRun(t, "undelayed", undelayed, "reordered", reordered)
					})
				}
			}
		}
	}
}

// mapsFinishedOutOfOrder reports whether some map task finished before
// a map task with a lower ID.
func mapsFinishedOutOfOrder(tl []sched.Attempt) bool {
	finished := map[string]time.Time{}
	for _, a := range tl {
		if a.Group == TaskGroupMap {
			finished[a.Task] = a.Finished
		}
	}
	for i := 1; i < len(finished); i++ {
		if finished[MapTaskName(i)].Before(finished[MapTaskName(i-1)]) {
			return true
		}
	}
	return false
}

// staggeredMapper sleeps an amount proportional to its task ID before
// emitting, creating deliberate map-phase stragglers.
type staggeredMapper struct {
	MapperBase
	info *TaskInfo
	unit time.Duration
}

func (m *staggeredMapper) Setup(info *TaskInfo, out Emitter) error {
	m.info = info
	return nil
}

func (m *staggeredMapper) Map(key, value []byte, out Emitter) error {
	time.Sleep(time.Duration(m.info.TaskID%4) * m.unit)
	for _, w := range strings.Fields(string(value)) {
		if err := out.Emit([]byte(w), []byte("1")); err != nil {
			return err
		}
	}
	return nil
}

// TestPipelinedShuffleOverlap proves the pipelining claim: with
// staggered map durations, shuffle fetches for early map tasks run
// while later map tasks are still executing — the event timeline shows
// a strictly positive map/fetch overlap, which a global map barrier
// makes impossible.
func TestPipelinedShuffleOverlap(t *testing.T) {
	job := wordCountJob(false)
	job.Parallelism = 4
	job.NewMapper = func() Mapper { return &staggeredMapper{unit: 20 * time.Millisecond} }
	input := lines("one two three", "two three four", "three four five", "four five six")
	res, err := Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	if ov := sched.Overlap(res.Timeline, TaskGroupMap, TaskGroupFetch); ov <= 0 {
		t.Errorf("map/fetch overlap = %v, want > 0 (fetches should start before the last map finishes)", ov)
	}
	mEnd, _, ok := lastFinish(res.Timeline, TaskGroupMap)
	fStart, _, ok2 := firstStart(res.Timeline, TaskGroupFetch)
	if !ok || !ok2 {
		t.Fatalf("timeline missing map or fetch attempts: %+v", res.Timeline)
	}
	if !fStart.Before(mEnd) {
		t.Errorf("earliest fetch started %v, after the latest map finished %v", fStart, mEnd)
	}
	if got := outputMap(t, res)["three"]; got != "3" {
		t.Errorf("three = %q, want 3", got)
	}
}

func lastFinish(tl []sched.Attempt, group string) (time.Time, string, bool) {
	var best time.Time
	var task string
	for _, a := range tl {
		if a.Group == group && a.Finished.After(best) {
			best, task = a.Finished, a.Task
		}
	}
	return best, task, !best.IsZero()
}

func firstStart(tl []sched.Attempt, group string) (time.Time, string, bool) {
	var best time.Time
	var task string
	for _, a := range tl {
		if a.Group == group && (best.IsZero() || a.Started.Before(best)) {
			best, task = a.Started, a.Task
		}
	}
	return best, task, !best.IsZero()
}

// stragglerMapper is pathologically slow only on the first attempt of
// task 0; retries and speculative duplicates run at full speed.
type stragglerMapper struct {
	MapperBase
	info *TaskInfo
}

func (m *stragglerMapper) Setup(info *TaskInfo, out Emitter) error {
	m.info = info
	return nil
}

func (m *stragglerMapper) Map(key, value []byte, out Emitter) error {
	if m.info.TaskID == 0 && m.info.Attempt == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	for _, w := range strings.Fields(string(value)) {
		if err := out.Emit([]byte(w), []byte("1")); err != nil {
			return err
		}
	}
	return nil
}

// TestSpeculativeExecution: with Job.Speculative set, a straggling map
// attempt is duplicated; the fast duplicate wins, output stays correct,
// and the timeline records both the speculative win and the cancelled
// original.
func TestSpeculativeExecution(t *testing.T) {
	job := wordCountJob(true)
	job.Speculative = true
	job.Parallelism = 4
	job.NewMapper = func() Mapper { return &stragglerMapper{} }
	// Task 0 gets many records so its first attempt crawls well past
	// the speculation threshold and has plenty of cancellation points.
	slow := &MemSplit{Recs: make([]Record, 300)}
	for i := range slow.Recs {
		slow.Recs[i] = Record{Value: []byte("straggle word count")}
	}
	splits := []Split{slow}
	for i := 0; i < 3; i++ {
		splits = append(splits, &MemSplit{Recs: []Record{{Value: []byte("straggle word count")}}})
	}
	res, err := Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputMap(t, res)["straggle"]; got != "303" {
		t.Errorf("straggle = %q, want 303", got)
	}
	var specWin, lostRace bool
	for _, a := range res.Timeline {
		if a.Task != "map/0" {
			continue
		}
		if a.Speculative && a.Outcome == sched.OutcomeSuccess {
			specWin = true
		}
		if a.Outcome == sched.OutcomeLostRace {
			lostRace = true
		}
	}
	if !specWin {
		t.Skip("straggler finished before speculation kicked in (timing-dependent); no speculative attempt to assert on")
	}
	if !lostRace {
		t.Errorf("speculative attempt won but no attempt recorded as lost-race: %+v", res.Timeline)
	}
}

// TestRetryRecoversTransientFault is the acceptance scenario: a
// transient injected fault kills the job when it has a single attempt,
// while an attempt budget retries the failed task and completes with
// correct output.
func TestRetryRecoversTransientFault(t *testing.T) {
	input := lines(strings.Repeat("retry recovers faults ", 300))
	want := outputMap(t, mustRun(t, jobForFaults(nil), input))

	mk := func(attempts int) *Job {
		job := jobForFaults(&iokit.FlakyFS{
			Inner:       iokit.NewMemFS(),
			FailWriteAt: 5, // hit an early spill write
			FailOnce:    true,
		})
		job.MaxTaskAttempts = attempts
		return job
	}

	// A single attempt: the glitch is fatal.
	if _, err := Run(mk(1), input); err == nil {
		t.Fatal("a single-attempt job should fail on the injected fault")
	}

	// With retries the task re-runs and succeeds.
	res, err := Run(mk(3), input)
	if err != nil {
		t.Fatalf("a job with retries should recover: %v", err)
	}
	got := outputMap(t, res)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q = %q, want %q", k, got[k], v)
		}
	}
	var sawRetry bool
	for _, a := range res.Timeline {
		if a.Outcome == sched.OutcomeRetrying {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Error("timeline records no retrying attempt")
	}
}

func mustRun(t *testing.T, job *Job, splits []Split) *Result {
	t.Helper()
	res, err := Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTimelineShape: every map, fetch, and reduce task appears in the
// timeline with consistent metadata on a plain successful run.
func TestTimelineShape(t *testing.T) {
	job := wordCountJob(true)
	job.Parallelism = 2
	input := lines("a b", "b c", "c d")
	res := mustRun(t, job, input)
	counts := map[string]int{}
	for _, a := range res.Timeline {
		counts[a.Group]++
		if a.Outcome != sched.OutcomeSuccess {
			t.Errorf("attempt %s outcome = %s on a clean run", a.Task, a.Outcome)
		}
		if a.Started.Before(a.Queued) || a.Finished.Before(a.Started) {
			t.Errorf("attempt %s has unordered timestamps", a.Task)
		}
	}
	nMap, nRed := 3, job.NumReduceTasks
	if counts[TaskGroupMap] != nMap || counts[TaskGroupFetch] != nMap*nRed || counts[TaskGroupReduce] != nRed {
		t.Errorf("timeline groups = %v, want map=%d fetch=%d reduce=%d", counts, nMap, nMap*nRed, nRed)
	}
	if len(res.MapTaskTimes) != nMap {
		t.Fatalf("MapTaskTimes = %v", res.MapTaskTimes)
	}
	for i, d := range res.MapTaskTimes {
		if d < 0 {
			t.Errorf("MapTaskTimes[%d] = %v", i, d)
		}
	}
}

// TestPipelinedConcurrentCounters: under parallelism the metered
// counters must still sum exactly (race-free accounting).
func TestPipelinedConcurrentCounters(t *testing.T) {
	job := wordCountJob(true)
	job.Parallelism = 8
	job.SortBufferBytes = 1 << 10
	var splits []Split
	for i := 0; i < 8; i++ {
		splits = append(splits, &MemSplit{Recs: []Record{{Value: []byte(strings.Repeat("count me now ", 200))}}})
	}
	res := mustRun(t, job, splits)
	if res.Stats.MapInputRecords != 8 {
		t.Errorf("MapInputRecords = %d, want 8", res.Stats.MapInputRecords)
	}
	var perPart int64
	for _, f := range res.ShufflePerPartition {
		perPart += f
	}
	if perPart != res.Stats.ShuffleBytes {
		t.Errorf("per-partition flows sum %d != ShuffleBytes %d", perPart, res.Stats.ShuffleBytes)
	}
	if got := outputMap(t, res)["count"]; got != "1600" {
		t.Errorf("count = %q, want 1600", got)
	}
}
