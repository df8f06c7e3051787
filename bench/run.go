package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// env records the machine and settings a result was measured under.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       int    `json:"gogc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick,omitempty"`
}

// gcPercent pins the collector's pacing so alloc-heavy workloads compare
// across machines and shells regardless of a GOGC in the environment.
const gcPercent = 100

func currentEnv(seed int64, quick bool) env {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: gcPercent, Commit: commit, Seed: seed, Quick: quick,
	}
}

// result is one workload's full record: what -o writes and -compare reads.
// The last line of standard output carries its Correct, Attempted, Failed
// and metric values.
type result struct {
	Workload string `json:"workload"`
	Env      env    `json:"env"`
	Traced   bool   `json:"traced"`
	// Reps is the number of timed repetitions behind each median.
	Reps int `json:"reps"`
	// Attempted counts oracle checks attempted over all repetitions run;
	// Failed those with a wrong verdict. Gate lists every failed
	// correctness check; Correct means it is empty.
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Gate        []string          `json:"gate,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	Metrics     map[string]metric `json:"metrics"`
	// Clock is what the clocks read before the end-to-end times were scaled
	// to reference-speed seconds; absent from a traced run, whose times are
	// as clocked.
	Clock *clockRecord `json:"clock,omitempty"`
}

type runOptions struct {
	seed    int64
	seconds float64
	quick   bool
	trace   bool
	spans   string // file the traced run writes its spans to; "" for none
}

const (
	// Set-up is repeated for the setup_s median: at least minSetups times,
	// and on workloads whose set-up takes a fraction of a second, until
	// setupSeconds have been spent or maxSetups made. One slow set-up in
	// three moves a median; one in nine does not. The toy sizes of -quick
	// stop at minSetups.
	minSetups    = 3
	maxSetups    = 9
	setupSeconds = 2.0
	// minReps is the fewest timed repetitions: two are needed to check that
	// a campaign reports the same thing twice.
	minReps = 2
)

// measureRep times one whole campaign, and the machine while it runs.
func measureRep(c campaign, workers int, tr *tracer) (repSample, error) {
	runtime.GC()
	cal := startCalibrator()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), time.Now()
	out, err := c.run(workers, tr)
	s := repSample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0, out: out}
	speed, busy := cal.finish()
	s.speed, s.cpu = speed, s.cpu-busy
	if err != nil {
		return s, err
	}
	runtime.ReadMemStats(&m1)
	s.allocB, s.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	// What the campaign still holds once it is over: database, graph,
	// plans and the result cache, which every campaign keeps reachable.
	// Two collections, because a sync.Pool's contents survive one.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	s.liveB = m1.HeapAlloc
	return s, nil
}

// openWarm performs one set-up: open the workload, then run its toy-size
// campaign once so pools, lazily built indexes and the heap are warm before
// anything is timed. It returns the toy campaign and its outcome too; the
// gate reruns it at Workers=2.
func openWarm(w workload, o runOptions, tr *tracer) (c, toy campaign, toyOut *outcome, err error) {
	if c, err = w.open(o.seed, o.quick, tr); err != nil {
		return nil, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer tr.begin("setup.warmup")()
	if toy, err = w.open(o.seed, true, nil); err != nil {
		return nil, nil, nil, fmt.Errorf("warm-up set-up: %w", err)
	}
	if toyOut, err = toy.run(1, nil); err != nil {
		return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, toy, toyOut, nil
}

// repChecks are the correctness checks every repetition gets for free: no
// wrong verdict on the pristine registry, structural invariants, and the
// same report as the first repetition.
func repChecks(reps []repSample) (failures []string) {
	for i, r := range reps {
		if r.out.wrong > 0 {
			failures = append(failures, fmt.Sprintf("repetition %d: %d mismatches or findings on the pristine registry", i, r.out.wrong))
		}
		if r.out.invariant != nil {
			failures = append(failures, fmt.Sprintf("repetition %d: %v", i, r.out.invariant))
		}
		if r.out.report != reps[0].out.report {
			failures = append(failures, fmt.Sprintf("repetition %d reports %s, repetition 0 reported %s",
				i, r.out.fingerprint(), reps[0].out.fingerprint()))
		}
	}
	return failures
}

// measured is what either kind of run hands back for the shared gate and
// accounting: the repetitions to check, the gate failures so far, the
// metrics, and the toy campaign with its Workers=1 outcome.
type measured struct {
	reps    []repSample
	timed   int // repetitions behind each median
	gate    []string
	metrics map[string]metric
	clock   *clockRecord // untraced runs only
	toy     campaign
	toyW1   *outcome
}

// runUntraced is the run that produces the end-to-end metrics.
func runUntraced(w workload, o runOptions) (*measured, error) {
	var (
		m      measured
		c      campaign
		setups []timed
		err    error
	)
	for begin := time.Now(); len(setups) < minSetups ||
		(!o.quick && len(setups) < maxSetups && time.Since(begin).Seconds() < setupSeconds); {
		cal, t0 := startCalibrator(), time.Now()
		c, m.toy, m.toyW1, err = openWarm(w, o, nil)
		raw := time.Since(t0).Seconds()
		speed, _ := cal.finish()
		if err != nil {
			return nil, err
		}
		setups = append(setups, timed{raw: raw, speed: speed})
	}
	// Closed loop, one campaign at a time. Stop where the total lands
	// nearest the requested time: another repetition runs only if at least
	// half of it still fits.
	start := time.Now()
	for len(m.reps) < minReps || time.Since(start).Seconds()+m.reps[len(m.reps)-1].wall/2 < o.seconds {
		s, err := measureRep(c, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", len(m.reps), err)
		}
		m.reps = append(m.reps, s)
	}
	m.timed = len(m.reps)
	m.gate, _ = c.gate()
	m.metrics, m.clock = endToEndMetrics(m.reps, setups)
	return &m, nil
}

// runTraced is the run that produces the per-layer metrics, in three passes.
func runTraced(w workload, o runOptions) (*measured, error) {
	tr := newTracer(w.name)
	tr.rep = -1 // set-up
	c, toy, toyW1, err := openWarm(w, o, tr)
	if err != nil {
		return nil, err
	}
	m := measured{timed: 1, toy: toy, toyW1: toyW1}
	// One repetition under a CPU profile comes first: its wall time is not
	// used, so it also absorbs what only a first full-size campaign pays
	// (column vectors and join indexes built on first touch).
	cpu, err := profileCPU(func() error { _, err := c.run(1, nil); return err })
	if err != nil {
		return nil, fmt.Errorf("profiled repetition: %w", err)
	}
	untraced, err := measureRep(c, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced repetition: %w", err)
	}
	// Pass 1: the campaign's own stage calls, in spans.
	tr.rep = 0
	traced, err := measureRep(c, 1, tr)
	if err != nil {
		return nil, fmt.Errorf("traced repetition: %w", err)
	}
	// The high-water mark of the three Workers=1 campaigns so far, before
	// the replay and the gate add their own.
	peakRSS := peakRSSMiB()
	// Pass 2: each layer's exported functions over pass 1's inputs.
	replay, err := c.replay(tr)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	// Pass 3 (with the profile above): one repetition at Workers=2.
	w2, err := measureRep(c, 2, nil)
	if err != nil {
		return nil, fmt.Errorf("Workers=2 repetition: %w", err)
	}
	identical := w2.out.report == untraced.out.report
	if !identical {
		m.gate = append(m.gate, fmt.Sprintf("Workers=2 reports %s, Workers=1 reported %s", w2.out.fingerprint(), untraced.out.fingerprint()))
	}
	gateFailures, gateCounts := c.gate()
	m.gate = append(m.gate, gateFailures...)
	m.reps = []repSample{untraced, traced}
	m.metrics = layerMetrics(layerInputs{
		spans: tr.spans, out: traced.out, wall: traced.wall, speed: traced.speed, untraced: untraced.refWall(),
		wallW2: w2.refWall(), peakRSS: peakRSS, identical: identical, replay: replay, gate: gateCounts, cpu: cpu,
	})
	if o.spans != "" {
		if err := writeSpans(o.spans, tr.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return &m, nil
}

// runWorkload measures one workload in this process. Untraced, it reports
// the end-to-end metrics; traced, the per-layer ones.
func runWorkload(w workload, o runOptions) (*result, error) {
	debug.SetGCPercent(gcPercent)
	run := runUntraced
	if o.trace {
		run = runTraced
	}
	m, err := run(w, o)
	if err != nil {
		return nil, err
	}
	gate := append(m.gate, repChecks(m.reps)...)
	// Reports must not depend on the worker count; the toy campaign makes
	// that affordable in every run.
	toyW2, err := m.toy.run(2, nil)
	switch {
	case err != nil:
		gate = append(gate, "toy campaign at Workers=2: "+err.Error())
	case toyW2.report != m.toyW1.report:
		gate = append(gate, fmt.Sprintf("toy campaign reports %s at Workers=2, %s at Workers=1", toyW2.fingerprint(), m.toyW1.fingerprint()))
	}

	res := &result{
		Workload: w.name, Env: currentEnv(o.seed, o.quick), Traced: o.trace,
		Reps: m.timed, Gate: gate, Correct: len(gate) == 0,
		Fingerprint: m.reps[0].out.fingerprint(), Metrics: m.metrics, Clock: m.clock,
	}
	for _, r := range m.reps {
		res.Attempted += r.out.checks
		res.Failed += r.out.wrong
	}
	return res, nil
}

// printResult lists every metric by name with its unit and sample count.
func printResult(res *result, defs []metricDef) {
	e := res.Env
	fmt.Printf("workload %s  seed=%d nproc=%d GOMAXPROCS=%d %s GOGC=%d commit=%s quick=%v\n",
		res.Workload, e.Seed, e.NProc, e.GOMAXPROCS, e.GoVersion, e.GOGC, e.Commit, e.Quick)
	for _, d := range defs {
		m := res.Metrics[d.name]
		line := fmt.Sprintf("  %-28s %16.6g %-6s", d.name, m.Value, m.Unit)
		if n := len(m.Samples); n > 0 {
			q1, q3 := quartiles(m.Samples)
			line += fmt.Sprintf(" median of %d  [q1 %.6g, q3 %.6g]", n, q1, q3)
		}
		fmt.Println(line)
	}
	if c := res.Clock; c != nil {
		fmt.Printf("  machine speed %.3f of the quiet reference machine (median of %d repetitions); as clocked: wall %.6g s, cpu %.6g s, set-up %.6g s\n",
			median(c.Speed), len(c.Speed), median(c.WallS), median(c.CPUS), median(c.SetupS))
	}
	fmt.Printf("  checks attempted %d, wrong %d, report %s\n", res.Attempted, res.Failed, res.Fingerprint)
	if res.Correct {
		fmt.Println("  gate: pass")
	}
	for _, g := range res.Gate {
		fmt.Println("  GATE FAILED:", g)
	}
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
