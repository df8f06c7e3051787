package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDisabledSessionIsNil(t *testing.T) {
	p, err := startProfile("", "")
	if err != nil {
		t.Fatalf("startProfile with no paths: %v", err)
	}
	if p != nil {
		t.Fatalf("startProfile with no paths returned a profile: %+v", p)
	}
	// stop must be safe on the nil profile main stops.
	if err := p.stop(); err != nil {
		t.Fatalf("stop on a nil profile: %v", err)
	}
}

func TestProfilesWrittenAndClosed(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	p, err := startProfile(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Allocate a little so the heap profile has something to record.
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 1024)
	}
	_ = sink
	if err := p.stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
	// A second stop must be a no-op, not a double close.
	if err := p.stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

func TestMemOnlySession(t *testing.T) {
	mem := filepath.Join(t.TempDir(), "mem.pprof")
	p, err := startProfile("", mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(mem); err != nil {
		t.Fatalf("heap profile not written: %v", err)
	}
}

func TestStartCreateErrorPropagates(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	if _, err := startProfile(bad, ""); err == nil {
		t.Fatal("startProfile with an uncreatable cpu path succeeded")
	}
}

func TestStopHeapCreateErrorPropagates(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "mem.pprof")
	p, err := startProfile("", bad)
	if err != nil {
		// The mem path is only opened at stop, so startProfile must not fail.
		t.Fatalf("startProfile: %v", err)
	}
	if err := p.stop(); err == nil {
		t.Fatal("stop with an uncreatable mem path succeeded")
	}
}
