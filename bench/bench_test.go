package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: two values
	// extrapolate, as Python does.
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got, want := spread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	if got := trimmedMean(nil, 0.1); got != 0 {
		t.Errorf("trimmedMean(nil) = %v, want 0", got)
	}
	// Ten values, one tenth cut from each end: the outlier and the smallest go.
	xs := []float64{1000, 2, 3, 4, 5, 6, 7, 8, 9, 1}
	if got := trimmedMean(xs, 0.1); got != 5.5 {
		t.Errorf("interdecile mean = %v, want 5.5", got)
	}
	// Fewer than ten values lose none.
	if got := trimmedMean([]float64{1, 2, 6}, 0.1); got != 3 {
		t.Errorf("trimmedMean of three = %v, want 3", got)
	}
}

// The calibrator reports a usable speed for any interval, however short, and
// its kernel stays off the Go heap.
func TestCalibrator(t *testing.T) {
	cal := startCalibrator()
	speed, busy := cal.finish()
	if len(cal.samples) < minCalibSamples {
		t.Errorf("%d samples after finish, want at least %d", len(cal.samples), minCalibSamples)
	}
	if !(speed > 0) || math.IsInf(speed, 0) {
		t.Errorf("speed = %v, want a positive finite number", speed)
	}
	if busy <= 0 || busy > 1 {
		t.Errorf("sampling inside an empty interval used %v s", busy)
	}
	if allocs := testing.AllocsPerRun(10, calibKernel); allocs != 0 {
		t.Errorf("the calibration kernel allocates %v times per run, want 0", allocs)
	}
	if r := (repSample{wall: 8, speed: 0.5}); r.refWall() != 4 {
		t.Errorf("8 s clocked at half speed = %v reference seconds, want 4", r.refWall())
	}
	if s := (timed{raw: 3, speed: 0.5}); s.ref() != 1.5 {
		t.Errorf("3 s clocked at half speed = %v reference seconds, want 1.5", s.ref())
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "suite.run", Start: 0, End: 10, Parent: -1},
		{Name: "exec.busy", Start: 1, End: 4, Parent: 0},
		{Name: "exec.busy", Start: 5, End: 7, Parent: 0},
		{Name: "exec.compare", Start: 5.5, End: 6, Parent: 2},
	}
	st := spanStats(spans)
	if got := st["suite.run"]; got.calls != 1 || got.total != 10 || got.self != 5 {
		t.Errorf("suite.run = %+v, want 1 call, total 10, self 5", got)
	}
	if got := st["exec.busy"]; got.calls != 2 || got.total != 5 || got.self != 4.5 {
		t.Errorf("exec.busy = %+v, want 2 calls, total 5, self 4.5", got)
	}
	if got := perCall(st, "exec.busy", 1e3); got != 2500 {
		t.Errorf("exec.busy per call = %v ms, want 2500", got)
	}
	if got := perCall(st, "absent", 1); got != 0 {
		t.Errorf("absent span per call = %v, want 0", got)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.begin("x")() // a nil tracer records nothing and must not panic

	tr := newTracer("w")
	endOuter := tr.begin("outer")
	tr.begin("inner")()
	endOuter()
	tr.begin("next")()
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	for i, want := range []int{-1, 0, -1} {
		if tr.spans[i].Parent != want {
			t.Errorf("span %d (%s) has parent %d, want %d", i, tr.spans[i].Name, tr.spans[i].Parent, want)
		}
	}
}

func TestFoldStacks(t *testing.T) {
	stacks := []stackSample{
		// Allocation inside the explorer: charged to opt, counted as malloc.
		{frames: []string{"runtime.mallocgc", "runtime.newobject", "qtrtest/internal/memo.(*Memo).Insert", "qtrtest/internal/opt.(*explorer).run", "main.main"}, count: 3},
		// The innermost internal frame wins, however deep the runtime goes.
		{frames: []string{"runtime.mapassign", "qtrtest/internal/core/suite.(*Graph).Run", "qtrtest.(*DB).GenerateSuite"}, count: 2},
		// A background mark worker has no qtrtest frame at all.
		{frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, count: 4},
		// Neither: the benchmark's own code. par is not a reported layer.
		{frames: []string{"qtrtest/internal/par.ForEach", "main.main"}, count: 1},
	}
	got := foldStacks(stacks)
	want := map[string]float64{"memo": 0.3, "suite": 0.2, "runtime_gc": 0.4, "other": 0.1, "malloc": 0.3}
	if len(got) != len(want) {
		t.Errorf("shares %v, want %v", got, want)
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", k, got[k], w)
		}
	}
}

func TestReadProfile(t *testing.T) {
	if _, err := readProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
	// A real profile of real work in this package: every sample must come
	// back with a stack, and the shares must partition the samples.
	sink := 0.0
	shares, err := profileCPU(func() error {
		for i := 0; i < 40; i++ {
			xs := make([]float64, 1<<16)
			for j := range xs {
				xs[j] = float64((j * 7919) % 1021)
			}
			sink += median(xs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) == 0 {
		t.Skipf("the profiler took no sample (sink %v)", sink)
	}
	sum := 0.0
	for k, s := range shares {
		if k != "malloc" {
			sum += s
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v, want 1", shares, sum)
	}
	if shares["other"] == 0 {
		t.Errorf("work outside qtrtest/internal was not charged to other: %v", shares)
	}
}

func TestJudge(t *testing.T) {
	wall := endToEnd[0]
	if wall.name != "wall_s" || wall.bound != 0.25 {
		t.Fatalf("endToEnd[0] = %+v, want wall_s with bound 0.25", wall)
	}
	m := func(xs ...float64) metric { return metric{Value: median(xs), Samples: xs} }
	for _, tc := range []struct {
		name       string
		base, head metric
		want       string
	}{
		{"within the bound", m(10, 10.1, 10.2), m(11, 11.1, 11.2), "ok"},
		{"past the bound", m(10, 10.1, 10.2), m(13.5, 13.6, 13.7), "WORSE"},
		{"too noisy to call", m(5, 10, 17), m(6, 11, 18), "unresolved"},
		{"noisy, but every run better", m(10, 14, 20), m(4, 6, 9), "better"},
	} {
		if got, _, _ := judge(wall, tc.base, tc.head); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	rate := endToEnd[2]
	if got := worsening(rate, 100, 80); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("a higher-is-better metric falling 100 to 80 worsens by %v, want 0.2", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	text, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(text, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json and the tables in this package name the same workloads and
// metrics, in the same order.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark {%s %s}", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := f.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := f.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload at -quick sizes, untraced and traced, and
// checks that each run emits exactly the metrics BENCHMARK.json names for
// it, each with a finite value and the declared unit, and passes the gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sixteen toy campaigns")
	}
	f := readBenchmarkFile(t)
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range f.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	seen := map[string]bool{}
	for _, set := range declared {
		for name, unit := range set {
			if seen[name] {
				t.Errorf("metric %s is declared twice", name)
			}
			seen[name] = true
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q is outside the allowed alphabet", name)
			}
			if !unitRE.MatchString(unit) {
				t.Errorf("metric %s: unit %q is outside the allowed alphabet", name, unit)
			}
		}
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, runOptions{seed: 7, quick: true, trace: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: gate failed: %v", w.name, traced, res.Gate)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			want := declared[traced]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, declared %q", w.name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
				}
			}
		}
	}
}
