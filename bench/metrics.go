package main

// metricDef names one metric; BENCHMARK.json lists the same names, units and
// directions (the smoke test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of the system sees, the same nine on every
// workload, measured with tracing off.
//
// Two of the issue's nine are replaced, both for reasons measured on the
// reference machine (README, "Departures from the issue"):
//
//   - fail_share (checks without a verdict, or with a wrong one, over checks
//     attempted) is reported as its complement verdict_share: the contract
//     wants end-to-end metrics that are never 0, and fail_share is 0 on three
//     of the four workloads. fail_share itself is a per-layer metric, and the
//     failed/attempted pair of the result line carries wrong verdicts.
//   - peak_rss_mb is demoted to the per-layer mem.peak_rss_mb: at a fixed
//     seed it spread by 10 % on validate_exec and 9 % on suite_pairs, because
//     how far the allocator runs ahead of a concurrent mark is timing. No
//     measurement inside one run fixes that. live_heap_mb takes its place:
//     the heap a campaign still holds when it ends, which repeats to 0.1 %.
//
// Every time, and the time under every rate, is in reference-speed seconds:
// the clocked time scaled by the machine's speed while it was clocked
// (calib.go). On the shared 2-core reference machine the same repetition
// clocks anything from 1 to 2 times its quiet time depending on the hour, and
// the driver refused a first version whose times were as clocked: over ten
// runs of the same code they spread by 16 to 31 % of their median.
//
// The bounds are wider than the issue's 0.10 and 0.05, and set from spreads
// measured over ten database seeds while the host ran at 0.43 to 0.70 of its
// quiet speed: up to 6.9 % on the scaled time-based metrics (21 % as
// clocked), and up to 4.8 % and 8.6 % on validate_exec's allocation and live
// heap, which follow the data. A bound inside the noise would reject every
// change, including none. setup_s gets the largest bound, as the contract
// asks.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"checks_per_s", "1/s", "higher", 0.25},
	{"plans_per_s", "1/s", "higher", 0.25},
	{"alloc_mb", "MiB", "lower", 0.15},
	{"allocs_k", "1e3", "lower", 0.15},
	{"live_heap_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"verdict_share", "ratio", "higher", 0.01},
}

// perLayer are the metrics of single layers, from the traced run. Counts are
// exact and repeat; times are per call unless suffixed _s. A metric that
// does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "bind.bind_us", unit: "us", better: "lower"},
	{name: "sqlgen.render_us", unit: "us", better: "lower"},

	{name: "qgen.queries", unit: "count", better: "higher"},
	{name: "qgen.trials", unit: "count", better: "lower"},
	{name: "qgen.accept_ratio", unit: "ratio", better: "higher"},
	{name: "qgen.generate_ms", unit: "ms", better: "lower"},

	{name: "opt.base_ms", unit: "ms", better: "lower"},
	{name: "opt.disabled_ms", unit: "ms", better: "lower"},
	{name: "opt.calls", unit: "count", better: "lower"},
	{name: "opt.memo_exprs", unit: "count", better: "lower"},
	{name: "opt.exprs_per_s", unit: "1/s", better: "higher"},
	{name: "opt.busy_s", unit: "s", better: "lower"},

	{name: "suite.generate_s", unit: "s", better: "lower"},
	{name: "suite.smc_s", unit: "s", better: "lower"},
	{name: "suite.topk_s", unit: "s", better: "lower"},
	{name: "suite.baseline_s", unit: "s", better: "lower"},
	{name: "suite.run_s", unit: "s", better: "lower"},
	{name: "suite.edge_calls", unit: "count", better: "lower"},
	{name: "suite.assignments", unit: "count", better: "higher"},
	{name: "suite.cost_smc", unit: "cost", better: "lower"},
	{name: "suite.cost_topk", unit: "cost", better: "lower"},
	{name: "suite.cost_baseline", unit: "cost", better: "lower"},

	{name: "exec.batch.plan_ms", unit: "ms", better: "lower"},
	{name: "exec.row.plan_ms", unit: "ms", better: "lower"},
	{name: "exec.ref.plan_ms", unit: "ms", better: "lower"},
	{name: "exec.batch.open_us", unit: "us", better: "lower"},
	{name: "exec.rows_out", unit: "count", better: "higher"},
	{name: "exec.busy_s", unit: "s", better: "lower"},
	{name: "exec.alloc_mb", unit: "MiB", better: "lower"},
	{name: "exec.compare_us", unit: "us", better: "lower"},
	{name: "exec.compare_calls", unit: "count", better: "higher"},

	{name: "rescache.hits", unit: "count", better: "higher"},
	{name: "rescache.misses", unit: "count", better: "lower"},
	{name: "rescache.evictions", unit: "count", better: "lower"},
	{name: "rescache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "rescache.bytes_mb", unit: "MiB", better: "lower"},
	{name: "rescache.hit_us", unit: "us", better: "lower"},
	{name: "rescache.miss_overhead_us", unit: "us", better: "lower"},

	{name: "oracle.checks", unit: "count", better: "higher"},
	{name: "oracle.identical_skips", unit: "count", better: "higher"},
	{name: "oracle.undetermined", unit: "count", better: "lower"},
	{name: "oracle.capped", unit: "count", better: "lower"},
	{name: "oracle.mismatches", unit: "count", better: "lower"},
	{name: "oracle.fail_share", unit: "ratio", better: "lower"},

	{name: "fuzz.generated", unit: "count", better: "higher"},
	{name: "fuzz.skipped", unit: "count", better: "lower"},
	{name: "fuzz.plan_shapes", unit: "count", better: "higher"},
	{name: "fuzz.diff_checks", unit: "count", better: "higher"},
	{name: "fuzz.meta_checks", unit: "count", better: "higher"},

	{name: "verify.pairs", unit: "count", better: "higher"},
	{name: "verify.executed", unit: "count", better: "higher"},
	{name: "verify.identical", unit: "count", better: "higher"},
	{name: "verify.pairs_per_s", unit: "1/s", better: "higher"},

	{name: "mutate.caught", unit: "count", better: "higher"},
	{name: "mutate.cpu_s_per_caught", unit: "s", better: "lower"},

	{name: "par.speedup_w2", unit: "ratio", better: "higher"},
	{name: "par.reports_identical", unit: "bool", better: "higher"},

	{name: "cpu.opt", unit: "share", better: "lower"},
	{name: "cpu.memo", unit: "share", better: "lower"},
	{name: "cpu.rules", unit: "share", better: "lower"},
	{name: "cpu.exec", unit: "share", better: "lower"},
	{name: "cpu.scalar", unit: "share", better: "lower"},
	{name: "cpu.logical", unit: "share", better: "lower"},
	{name: "cpu.datum", unit: "share", better: "lower"},
	{name: "cpu.fnv64", unit: "share", better: "lower"},
	{name: "cpu.rescache", unit: "share", better: "lower"},
	{name: "cpu.sql", unit: "share", better: "lower"},
	{name: "cpu.bind", unit: "share", better: "lower"},
	{name: "cpu.sqlgen", unit: "share", better: "lower"},
	{name: "cpu.qgen", unit: "share", better: "lower"},
	{name: "cpu.suite", unit: "share", better: "lower"},
	{name: "cpu.fuzz", unit: "share", better: "lower"},
	{name: "cpu.verify", unit: "share", better: "lower"},
	{name: "cpu.refengine", unit: "share", better: "lower"},
	{name: "cpu.physical", unit: "share", better: "lower"},
	{name: "cpu.catalog", unit: "share", better: "lower"},
	{name: "cpu.runtime_gc", unit: "share", better: "lower"},
	{name: "cpu.other", unit: "share", better: "lower"},
	{name: "cpu.malloc", unit: "share", better: "lower"},

	{name: "mem.peak_rss_mb", unit: "MiB", better: "lower"},

	{name: "trace.coverage", unit: "ratio", better: "higher"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},

	{name: "machine.speed", unit: "ratio", better: "higher"},
}

// metric is one reported value. Samples are the per-repetition (or
// per-set-up) values a median was taken over; counts have none.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// timed is one clocked interval and the machine's speed while it ran
// (calib.go): 1 on the quiet reference machine, less when the host is busy.
type timed struct{ raw, speed float64 }

// ref is the interval in reference-speed seconds.
func (t timed) ref() float64 { return t.raw * t.speed }

// clockRecord is what the clocks read before scaling: -o keeps it beside the
// metrics, so a reader can undo the scaling.
type clockRecord struct {
	Speed      []float64 `json:"speed"`  // per repetition
	WallS      []float64 `json:"wall_s"` // per repetition, as clocked
	CPUS       []float64 `json:"cpu_s"`
	SetupSpeed []float64 `json:"setup_speed"` // per set-up
	SetupS     []float64 `json:"setup_s"`
}

// repSample is what one timed repetition measured. wall and cpu are as
// clocked (cpu without the calibrator's own); speed scales them.
type repSample struct {
	wall, cpu, speed float64
	allocB, allocs   uint64
	liveB            uint64 // heap still reachable after the repetition
	out              *outcome
}

// refWall is the repetition's wall time in reference-speed seconds.
func (r repSample) refWall() float64 { return r.wall * r.speed }

// endToEndMetrics folds the timed repetitions into the nine end-to-end
// metrics: medians over repetitions, the sample count being len(Samples).
// Every time, and the time under every rate, is in reference-speed seconds.
func endToEndMetrics(reps []repSample, setups []timed) (map[string]metric, *clockRecord) {
	var wall, cpu, checks, plans, allocMB, allocsK, liveMB, setup []float64
	var clock clockRecord
	attempted, verdicts := 0, 0
	for _, s := range setups {
		setup = append(setup, s.ref())
		clock.SetupSpeed = append(clock.SetupSpeed, s.speed)
		clock.SetupS = append(clock.SetupS, s.raw)
	}
	for _, r := range reps {
		w := r.refWall()
		wall = append(wall, w)
		cpu = append(cpu, r.cpu*r.speed)
		checks = append(checks, float64(r.out.verdicts())/w)
		plans = append(plans, float64(r.out.cache.Misses)/w)
		clock.Speed = append(clock.Speed, r.speed)
		clock.WallS = append(clock.WallS, r.wall)
		clock.CPUS = append(clock.CPUS, r.cpu)
		allocMB = append(allocMB, float64(r.allocB)/(1<<20))
		allocsK = append(allocsK, float64(r.allocs)/1e3)
		liveMB = append(liveMB, float64(r.liveB)/(1<<20))
		attempted += r.out.checks
		verdicts += r.out.verdicts()
	}
	med := func(unit string, xs []float64) metric { return metric{Value: median(xs), Unit: unit, Samples: xs} }
	share := 0.0
	if attempted > 0 {
		share = float64(verdicts) / float64(attempted)
	}
	return map[string]metric{
		"wall_s":        med("s", wall),
		"cpu_s":         med("s", cpu),
		"checks_per_s":  med("1/s", checks),
		"plans_per_s":   med("1/s", plans),
		"alloc_mb":      med("MiB", allocMB),
		"allocs_k":      med("1e3", allocsK),
		"live_heap_mb":  med("MiB", liveMB),
		"setup_s":       med("s", setup),
		"verdict_share": {Value: share, Unit: "ratio"},
	}, &clock
}

// layerInputs is everything the traced run gathered.
type layerInputs struct {
	spans     []span
	out       *outcome           // the traced repetition's outcome
	wall      float64            // the traced repetition's wall time, as clocked like every span
	speed     float64            // the machine's speed during the traced repetition
	untraced  float64            // an untraced repetition's wall time, in reference-speed seconds
	wallW2    float64            // a Workers=2 repetition's wall time, in reference-speed seconds
	peakRSS   float64            // MiB, read after pass 1
	identical bool               // Workers=1 and Workers=2 reports byte-identical
	replay    map[string]float64 // counts from campaign.replay
	gate      map[string]float64 // counts from campaign.gate
	cpu       map[string]float64 // CPU shares from the profiled repetition
}

// layerMetrics assembles every per-layer metric; one that does not apply to
// the workload stays 0.
func layerMetrics(in layerInputs) map[string]metric {
	v := make(map[string]float64, len(perLayer))
	// Exact counts from the campaign's own reports and the replay. Keys that
	// name no metric (opt.base_calls, exec.replayed) are intermediates the
	// formulas below use; only perLayer's names are reported.
	for k, x := range in.out.layer {
		v[k] = x
	}
	for k, x := range in.replay {
		v[k] = x
	}
	for k, x := range in.gate {
		v[k] = x
	}
	for k, x := range in.cpu {
		v["cpu."+k] = x
	}

	// Spans: set-up and pass 1 give the stage totals, pass 2 the per-call costs.
	st := spanStats(in.spans)
	for metric, name := range map[string]string{
		"suite.generate_s": "suite.generate", "suite.smc_s": "suite.smc", "suite.topk_s": "suite.topk",
		"suite.baseline_s": "suite.baseline", "suite.run_s": "suite.run",
	} {
		v[metric] = st[name].total
	}
	v["sql.parse_us"] = perCall(st, "sql.parse", 1e6)
	v["bind.bind_us"] = perCall(st, "bind.bind", 1e6)
	v["sqlgen.render_us"] = perCall(st, "sqlgen.render", 1e6)
	v["opt.base_ms"] = perCall(st, "opt.base", 1e3)
	v["opt.disabled_ms"] = perCall(st, "opt.disabled", 1e3)
	v["exec.batch.plan_ms"] = perCall(st, "exec.batch.plan", 1e3)
	v["exec.row.plan_ms"] = perCall(st, "exec.row.plan", 1e3)
	v["exec.ref.plan_ms"] = perCall(st, "exec.ref.plan", 1e3)
	v["exec.compare_us"] = perCall(st, "exec.compare", 1e6)
	v["rescache.hit_us"] = perCall(st, "rescache.hit", 1e6)

	if q := v["qgen.queries"]; q > 0 {
		v["qgen.generate_ms"] = st["qgen.generate"].total / q * 1e3
		v["qgen.accept_ratio"] = q / v["qgen.trials"]
	}
	if optTime := st["opt.base"].total + st["opt.disabled"].total; optTime > 0 {
		optCalls := float64(st["opt.base"].calls + st["opt.disabled"].calls)
		v["opt.exprs_per_s"] = v["opt.memo_exprs"] * optCalls / optTime
	}
	baseCalls := v["opt.base_calls"]
	v["opt.busy_s"] = (baseCalls*v["opt.base_ms"] + (v["opt.calls"]-baseCalls)*v["opt.disabled_ms"]) / 1e3

	// Executor totals: the replay's per-plan mean, scaled to the plans the
	// campaign really executed (its cache misses). On the suite workloads
	// the replay covers exactly those plans and the scale is 1.
	cache := in.out.cache
	if replayed := v["exec.replayed"]; replayed > 0 {
		scale := float64(cache.Misses) / replayed
		v["exec.busy_s"] = st["exec.busy"].total * scale
		v["exec.rows_out"] *= scale
		v["exec.alloc_mb"] *= scale
	}
	v["exec.compare_calls"] = float64(in.out.checks - in.out.capped)

	v["rescache.hits"] = float64(cache.Hits)
	v["rescache.misses"] = float64(cache.Misses)
	v["rescache.evictions"] = float64(cache.Evictions)
	if n := cache.Hits + cache.Misses; n > 0 {
		v["rescache.hit_ratio"] = float64(cache.Hits) / float64(n)
	}
	v["rescache.bytes_mb"] = float64(cache.Bytes) / (1 << 20)

	v["oracle.checks"] = float64(in.out.checks)
	v["oracle.identical_skips"] = float64(in.out.skips)
	v["oracle.undetermined"] = float64(in.out.undetermined)
	v["oracle.capped"] = float64(in.out.capped)
	v["oracle.mismatches"] = float64(in.out.wrong)
	if in.out.checks > 0 {
		v["oracle.fail_share"] = 1 - float64(in.out.verdicts())/float64(in.out.checks)
	}
	v["verify.pairs_per_s"] = v["verify.pairs"] / in.wall

	v["mem.peak_rss_mb"] = in.peakRSS
	v["par.speedup_w2"] = in.untraced / in.wallW2
	if in.identical {
		v["par.reports_identical"] = 1
	}

	// Coverage: the time the per-call costs account for, over the traced
	// repetition's wall time. Every all-rules-on optimization follows one
	// render, parse and bind.
	frontend := baseCalls * (v["sqlgen.render_us"] + v["sql.parse_us"] + v["bind.bind_us"]) / 1e6
	attributed := v["opt.busy_s"] + v["exec.busy_s"] + frontend +
		(v["exec.compare_calls"]*v["exec.compare_us"]+
			v["rescache.hits"]*v["rescache.hit_us"]+
			v["rescache.misses"]*v["rescache.miss_overhead_us"])/1e6
	v["trace.coverage"] = attributed / in.wall
	v["trace.overhead"] = in.wall * in.speed / in.untraced
	v["machine.speed"] = in.speed

	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return out
}
