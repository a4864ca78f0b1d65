package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mr"
)

func TestMain(m *testing.M) {
	// The fleet workload spawns this test binary as its workers.
	cluster.WorkerMainIfSpawned()
	os.Exit(m.Run())
}

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedMetric `json:"end_to_end"`
	PerLayer []namedMetric `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// lastResult parses the result object on the last line of stdout.
func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout)
	}
	return r
}

// TestTinyRunPrintsEveryMetric runs every workload at a tiny input
// size, untraced and traced, and requires the metrics BENCHMARK.json
// declares, with their units, and no wrong output. A listed workload
// prints exactly those metrics. The program may offer workloads
// BENCHMARK.json does not list, but not the reverse; those may print
// more per-layer metrics (the wire's and the cluster's).
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	listed := make(map[string]bool)
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json lists workload %q, which the program lacks", w.Name)
		}
		listed[w.Name] = true
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			want  []namedMetric
		}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
			t.Run(w.name+"/trace"+mode.trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.05",
					"--trace", mode.trace, "--scale", "0.01", "--out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				if !strings.HasPrefix(stdout.String(), "# perfbench workload="+w.name+" seed=3") {
					t.Errorf("output does not start with the machine header:\n%s", stdout.String())
				}
				r := lastResult(t, stdout.String())
				if !r.Correct || r.Attempted < 1 || r.Failed > r.Attempted {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, stderr.String())
				}
				if r.Failed > 0 {
					// A job the engine failed (no wrong output) is counted,
					// not hidden; the metrics must print all the same.
					t.Logf("%d of %d jobs failed:\n%s", r.Failed, r.Attempted, stderr.String())
				}
				if got := len(r.Metrics); got < len(mode.want) || listed[w.name] && got != len(mode.want) {
					t.Errorf("got %d metrics, BENCHMARK.json declares %d", got, len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %q", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(stdout.String(), "metric "+m.Name+" ") {
						t.Errorf("metric %s has no text line", m.Name)
					}
				}
				if mode.trace == "1" && r.Failed == 0 {
					checkLayerLoads(t, w.name, r)
				}
			})
		}
	}
}

// checkLayerLoads asserts the layer loads that hold at any input size:
// only Sort uses the codec, only the TCP and fleet workloads put bytes
// on a wire, and only Anti-Combining workloads encode.
func checkLayerLoads(t *testing.T, workload string, r result) {
	t.Helper()
	v := func(name string) float64 { return r.Metrics[name].Value }
	if got := v("codec.raw_bytes") > 0; got != strings.HasPrefix(workload, "sort-") {
		t.Errorf("codec.raw_bytes = %v", v("codec.raw_bytes"))
	}
	wire := strings.HasSuffix(workload, "-tcp") || strings.HasSuffix(workload, "-fleet")
	if got := v("mr.fetch.wire_bytes") > 0; got != wire {
		t.Errorf("mr.fetch.wire_bytes = %v", v("mr.fetch.wire_bytes"))
	}
	encoded := v("anticombine.plain_records") + v("anticombine.lazy_records") + v("anticombine.eager_records")
	if got := encoded > 0; got != !strings.HasPrefix(workload, "qs-orig") {
		t.Errorf("anticombine records = %v", encoded)
	}
	if v("map_fn.calls") == 0 || v("reduce_fn.calls") == 0 || v("sched.map.busy_s") == 0 {
		t.Errorf("user functions or scheduler not traced: %+v", r.Metrics)
	}
}

// TestCorruptOutputCountsAsFailure alters or drops one output record of
// every job and requires every job to count as failed and the result to
// say the output was not correct.
func TestCorruptOutputCountsAsFailure(t *testing.T) {
	corruptions := map[string]func(*mr.Result){
		"altered": func(res *mr.Result) {
			recs := firstNonEmpty(res)
			key := append([]byte(nil), recs[0].Key...)
			key[len(key)-1] ^= 0x20
			recs[0].Key = key
		},
		"dropped": func(res *mr.Result) {
			for p := range res.Output {
				if n := len(res.Output[p]); n > 0 {
					res.Output[p] = res.Output[p][:n-1]
					return
				}
			}
		},
	}
	for _, name := range []string{"qs-anti", "sort-anti"} {
		for kind, corrupt := range corruptions {
			t.Run(name+"/"+kind, func(t *testing.T) {
				w, _ := findWorkload(name)
				inst, err := w.setup(5, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				defer inst.close()
				runJob := inst.run
				inst.run = func(led *ledger) (*mr.Result, error) {
					res, err := runJob(led)
					if err == nil {
						corrupt(res)
					}
					return res, err
				}
				var r loopResult
				measure(inst, 0.01, &r)
				if r.attempted() < 1 || r.failed() != r.attempted() || r.wrong != r.attempted() {
					t.Fatalf("attempted=%d failed=%d wrong=%d", r.attempted(), r.failed(), r.wrong)
				}
				var out bytes.Buffer
				printResult(&out, r, nil)
				if res := lastResult(t, out.String()); res.Correct || res.Failed != res.Attempted {
					t.Fatalf("result %+v", res)
				}
			})
		}
	}
}

func firstNonEmpty(res *mr.Result) []mr.Record {
	for _, recs := range res.Output {
		if len(recs) > 0 {
			return recs
		}
	}
	return nil
}

func TestTailLeavesTenBeyond(t *testing.T) {
	v := make([]float64, 40)
	for i := range v {
		v[i] = float64(40 - i)
	}
	if got, note := tail(v); got != 30 || note != "p75 of n=40, 10 beyond" {
		t.Fatalf("tail = %v (%s), want 30 (p75 of n=40)", got, note)
	}
	if got, _ := tail(v[:5]); got != 36 {
		t.Fatalf("tail of 5 = %v, want the minimum", got)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		name                  string
		tcp                   bool
		class, task, consumer string
	}{
		{"qs/m0003/spill0001.p0002", false, "spill", "map/3", "reduce/2"},
		{"qs/m0003.a1/out.p0012", true, "mapout", "map/3", "fetch/12/3"},
		{"qs/m0003/out.p0002.pass0000", false, "mergepass", "map/3", "reduce/2"},
		{"qs/r0004/m0007.a0.fetch0000", true, "fetch", "fetch/4/7", "reduce/4"},
		{"qs/r0004/merged.pass0001", true, "reducemerge", "reduce/4", ""},
		{"qs-anti/anti/t0004-p0005-i9/shared-spill0002", false, "shared", "reduce/5", ""},
	} {
		class, task, consumer := classify(c.name, c.tcp)
		if class != c.class || task != c.task || consumer != c.consumer {
			t.Errorf("classify(%q) = %s %s %s, want %s %s %s", c.name, class, task, consumer, c.class, c.task, c.consumer)
		}
	}
}
