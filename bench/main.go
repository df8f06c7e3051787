// Command bench is the repository's benchmark: four whole-campaign workloads
// driven through the same library entry points the qtrtest CLI uses, nine
// end-to-end metrics measured with tracing off, and per-layer metrics taken
// from outside by timing calls into each layer's exported functions.
//
//	go run ./bench -workload suite_pairs [-seed 42] [-seconds 20] [-trace 1] [-o out.json]
//	go run ./bench -all [-aa] [-quick] [-trace 1] [-o out.json]
//	go run ./bench -compare base.json head.json
//
// See README.md in this directory for the workloads, the metric glossary and
// how the metrics interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// document is what -o writes: one result per workload measured.
type document struct {
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: suite_pairs, validate_exec, fuzz_star or verify_sweep")
		all     = flag.Bool("all", false, "run every workload, each in a process of its own")
		aa      = flag.Bool("aa", false, "with -all: run everything twice and compare the two sets against the bounds")
		compare = flag.Bool("compare", false, "compare two files written by -o: bench -compare base.json head.json")
		seed    = flag.Int64("seed", 42, "database seed; query-generation seeds are fixed by each workload")
		seconds = flag.Float64("seconds", 20, "how long the timed repetitions run (at least two always run)")
		trace   = flag.Int("trace", 0, "1 runs the traced passes and reports the per-layer metrics instead")
		quick   = flag.Bool("quick", false, "toy sizes, each workload under 2 s per repetition; for smoke tests")
		out     = flag.String("o", "", "write the full results, samples included, to this file")
		spans   = flag.String("spans", "", "with -trace 1: write the spans to this file, one JSON object per line")
	)
	flag.Parse()
	opts := runOptions{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace != 0, spans: *spans}

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *all:
		err = runAll(opts, *aa, *out)
	case *name != "":
		err = runOne(*name, opts, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errGate = errors.New("correctness gate failed")

// runOne measures one workload in this process, prints its metrics, and
// ends standard output with the one-line result object. A failed gate still
// prints everything, then exits non-zero.
func runOne(name string, o runOptions, outPath string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	printResult(res, defs)
	if outPath != "" {
		if err := writeDocument(outPath, &document{Workloads: map[string]*result{name: res}}); err != nil {
			return err
		}
	}

	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		m := res.Metrics[d.name]
		line.Metrics[d.name] = metric{Value: m.Value, Unit: m.Unit} // no samples on the result line
	}
	text, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(text))
	if !res.Correct {
		return errGate
	}
	return nil
}

// runAll re-executes this binary once per workload, so resident set size,
// collector state and executor pools never carry over from one workload to
// the next. With aa it does so twice, in the same order, and holds the two
// sets against each other.
func runAll(o runOptions, aa bool, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "qtrbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	sets := 1
	if aa {
		sets = 2
	}
	docs := make([]*document, sets)
	failed := false
	for s := range docs {
		docs[s] = &document{Workloads: map[string]*result{}}
		for _, w := range workloads {
			file := filepath.Join(dir, fmt.Sprintf("%s.%d.json", w.name, s))
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-o", file, fmt.Sprintf("-quick=%v", o.quick),
			}
			if o.trace {
				args = append(args, "-trace", "1")
				if o.spans != "" {
					args = append(args, "-spans", o.spans+"."+w.name)
				}
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				// A failed gate has still written its results; anything
				// else has not, and reading the file says so.
				failed = true
			}
			doc, err := readDocument(file)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			docs[s].Workloads[w.name] = doc.Workloads[w.name]
		}
	}
	if outPath != "" {
		if err := writeDocument(outPath, docs[0]); err != nil {
			return err
		}
	}
	if aa && !compareDocuments(docs[0], docs[1], true) {
		return errors.New("two runs of the same code differ by more than a bound")
	}
	if failed {
		return errGate
	}
	return nil
}

func writeDocument(path string, doc *document) error {
	text, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(text, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(text, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}
