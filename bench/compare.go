package main

import (
	"errors"
	"fmt"
)

// worsening is how much worse head is than base, as a share of base, with
// the metric's direction applied: positive is worse, negative better.
func worsening(d metricDef, base, head float64) float64 {
	if base == 0 {
		return 0
	}
	w := (head - base) / base
	if d.better == "higher" {
		w = -w
	}
	return w
}

// allBetter reports whether every head sample reads better than every base
// sample: the one case in which a noisy metric can still be called.
func allBetter(d metricDef, base, head []float64) bool {
	if len(base) == 0 || len(head) == 0 {
		return false
	}
	for _, h := range head {
		for _, b := range base {
			if worsening(d, b, h) >= 0 {
				return false
			}
		}
	}
	return true
}

// judge holds one end-to-end metric of two results against its bound.
// A metric whose run-to-run spread on either side exceeds the bound cannot
// carry a verdict: it is unresolved, not unchanged, unless every head sample
// beats every base sample.
func judge(d metricDef, base, head metric) (verdict string, worse, noise float64) {
	worse = worsening(d, base.Value, head.Value)
	noise = spread(base.Samples)
	if s := spread(head.Samples); s > noise {
		noise = s
	}
	switch {
	case noise > d.bound && allBetter(d, base.Samples, head.Samples):
		return "better", worse, noise
	case noise > d.bound:
		return "unresolved", worse, noise
	case worse > d.bound:
		return "WORSE", worse, noise
	}
	return "ok", worse, noise
}

// compareDocuments prints, per workload and end-to-end metric, both medians,
// the relative difference, the spread and the bound, and reports whether no
// metric got worse by more than its bound. With strict set (the A/A mode,
// where both sides are the same code), an unresolved metric whose medians
// differ by more than the bound fails too.
func compareDocuments(base, head *document, strict bool) bool {
	ok := true
	for _, w := range workloads {
		b, h := base.Workloads[w.name], head.Workloads[w.name]
		if b == nil || h == nil || b.Traced || h.Traced {
			continue
		}
		fmt.Printf("%s  (base %d reps, head %d reps)\n", w.name, b.Reps, h.Reps)
		fmt.Printf("  %-14s %14s %14s %9s %8s %7s  %s\n", "metric", "base", "head", "worse by", "spread", "bound", "verdict")
		for _, d := range endToEnd {
			verdict, worse, noise := judge(d, b.Metrics[d.name], h.Metrics[d.name])
			if verdict == "WORSE" || (strict && verdict == "unresolved" && worse > d.bound) {
				ok = false
			}
			fmt.Printf("  %-14s %14.6g %14.6g %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				d.name, b.Metrics[d.name].Value, h.Metrics[d.name].Value, worse*100, noise*100, d.bound*100, verdict)
		}
	}
	return ok
}

// compareFiles implements -compare base.json head.json.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two files written by -o: base.json head.json")
	}
	base, err := readDocument(args[0])
	if err != nil {
		return err
	}
	head, err := readDocument(args[1])
	if err != nil {
		return err
	}
	if !compareDocuments(base, head, false) {
		return errors.New("an end-to-end metric got worse by more than its bound")
	}
	return nil
}
