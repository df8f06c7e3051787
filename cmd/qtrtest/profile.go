package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profile is the -cpuprofile/-memprofile state of one run. Write and close
// errors are returned, not dropped.
type profile struct {
	cpu     *os.File
	memPath string
}

// startProfile begins CPU profiling when cpuPath is non-empty and remembers
// memPath for a heap snapshot at stop. Either path may be empty; a nil
// profile with no error means profiling is off.
func startProfile(cpuPath, memPath string) (*profile, error) {
	if cpuPath == "" && memPath == "" {
		return nil, nil
	}
	p := &profile{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, errors.Join(fmt.Errorf("start cpu profile: %w", err), f.Close())
		}
		p.cpu = f
	}
	return p, nil
}

// stop finishes CPU profiling and writes the heap profile, if either was
// asked for. It is safe on a nil profile, a second call does nothing, and
// its error joins every failure, file-close errors included.
func (p *profile) stop() error {
	if p == nil {
		return nil
	}
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
		p.cpu = nil
	}
	if p.memPath != "" {
		errs = append(errs, writeHeap(p.memPath))
		p.memPath = ""
	}
	return errors.Join(errs...)
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create mem profile: %w", err)
	}
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		return errors.Join(fmt.Errorf("write mem profile: %w", err), f.Close())
	}
	return f.Close()
}
