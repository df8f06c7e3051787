package analyzers

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"qtrtest/internal/lint"
)

// analyze typechecks the snippets (filename → source) as a package with the
// given import path and runs all analyzers, returning rendered diagnostics
// "file:line: analyzer: message". The source importer resolves std imports
// from GOROOT, so snippets can use fmt, time, math/rand and sort for real.
func analyze(t *testing.T, pkgPath string, srcs map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for name, src := range srcs {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var out []string
	for _, d := range lint.Run(fset, files, pkg, info, All()) {
		pos := fset.Position(d.Pos)
		out = append(out, fmt.Sprintf("%s:%d: %s: %s", pos.Filename, pos.Line, d.Analyzer, d.Message))
	}
	return out
}

func wantFindings(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if !strings.Contains(got[i], want[i]) {
			t.Errorf("finding %d = %q, want contains %q", i, got[i], want[i])
		}
	}
}

func TestWallclock(t *testing.T) {
	src := map[string]string{"a.go": `package opt
import "time"
func f() time.Time { return time.Now() }
func g() time.Time { return time.Unix(0, 0) }
`}
	wantFindings(t, analyze(t, "qtrtest/internal/opt", src),
		"a.go:3: wallclock: time.Now in result-affecting package")
	// Same code outside the result-affecting set is fine.
	wantFindings(t, analyze(t, "qtrtest/internal/report", src))
}

func TestWallclockSuppression(t *testing.T) {
	got := analyze(t, "qtrtest/internal/exec", map[string]string{"a.go": `package exec
import "time"
//qtrlint:allow wallclock telemetry for the progress log
func f() time.Time { return time.Now() }
`})
	wantFindings(t, got)
}

func TestSuppressionNeedsReason(t *testing.T) {
	got := analyze(t, "qtrtest/internal/exec", map[string]string{"a.go": `package exec
import "time"
//qtrlint:allow wallclock
func f() time.Time { return time.Now() }
`})
	wantFindings(t, got,
		"allow: qtrlint:allow wallclock needs a reason",
		"wallclock: time.Now in result-affecting package")
}

func TestUnusedSuppressionFlagged(t *testing.T) {
	got := analyze(t, "qtrtest/internal/exec", map[string]string{"a.go": `package exec
//qtrlint:allow wallclock no wallclock here at all
func f() int { return 0 }
`})
	wantFindings(t, got, "suppresses nothing")
}

func TestGlobalRand(t *testing.T) {
	got := analyze(t, "qtrtest/internal/rules", map[string]string{"a.go": `package rules
import "math/rand"
func bad() int { return rand.Intn(10) }
func good() int { return rand.New(rand.NewSource(42)).Intn(10) }
`})
	wantFindings(t, got, "globalrand: rand.Intn uses the global unseeded source")
}

func TestMapRangePrint(t *testing.T) {
	got := analyze(t, "qtrtest/cmd/qtrtest", map[string]string{"a.go": `package main
import "fmt"
func dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`})
	wantFindings(t, got, "maprange: fmt.Printf inside map iteration emits in randomized order")
}

func TestMapRangeBuilderWrite(t *testing.T) {
	got := analyze(t, "qtrtest/cmd/qtrtest", map[string]string{"a.go": `package main
import "strings"
func dump(m map[string]int) string {
	var sb strings.Builder
	for k := range m {
		sb.WriteString(k)
	}
	return sb.String()
}
`})
	wantFindings(t, got, "maprange: WriteString inside map iteration writes in randomized order")
}

func TestMapRangeCollectWithoutSort(t *testing.T) {
	got := analyze(t, "qtrtest/internal/mutate", map[string]string{"a.go": `package mutate
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`})
	wantFindings(t, got, `maprange: map iteration appends to "out" in randomized order`)
}

// TestMapRangeCollectThenSort: the sanctioned collect-then-sort pattern
// (e.g. rules.Set.Sorted) stays clean.
func TestMapRangeCollectThenSort(t *testing.T) {
	got := analyze(t, "qtrtest/internal/mutate", map[string]string{"a.go": `package mutate
import "sort"
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`})
	wantFindings(t, got)
}

// TestMapRangeSetIteration is the scalar.ColSet migration in miniature: rule
// code that ranged over the old map-typed column set while collecting into a
// slice is what maprange flags, and the bitset's ascending ForEach (or ranging
// over its Sorted slice) is clean — there is no map left to range over.
func TestMapRangeSetIteration(t *testing.T) {
	got := analyze(t, "qtrtest/internal/rules", map[string]string{"a.go": `package rules
type ColumnID int

type mapSet map[ColumnID]bool

func keptOld(cols, needed mapSet) []ColumnID {
	var keep []ColumnID
	for c := range cols {
		if needed[c] {
			keep = append(keep, c)
		}
	}
	return keep
}

type bitSet struct{ words [2]uint64 }

func (s bitSet) Contains(id ColumnID) bool { return s.words[id>>6]&(1<<(uint(id)&63)) != 0 }

func (s bitSet) ForEach(fn func(ColumnID)) {
	for id := ColumnID(0); id < 128; id++ {
		if s.Contains(id) {
			fn(id)
		}
	}
}

func (s bitSet) Sorted() []ColumnID {
	var out []ColumnID
	s.ForEach(func(id ColumnID) { out = append(out, id) })
	return out
}

func keptNew(cols, needed bitSet) []ColumnID {
	var keep []ColumnID
	cols.ForEach(func(c ColumnID) {
		if needed.Contains(c) {
			keep = append(keep, c)
		}
	})
	for _, c := range cols.Sorted() {
		if needed.Contains(c) {
			keep = append(keep, c)
		}
	}
	return keep
}
`})
	wantFindings(t, got, `a.go:8: maprange: map iteration appends to "keep" in randomized order`)
}

// TestMapRangeNestedAppendRegression pins the fix for the bug this very
// analyzer found in lint.Run on its first self-hosted run: iterating a map
// of per-file suppressions and appending diagnostics without sorting.
func TestMapRangeNestedAppendRegression(t *testing.T) {
	got := analyze(t, "qtrtest/internal/mutate", map[string]string{"a.go": `package mutate
type diag struct{ msg string }
func unused(allow map[string][]int) []diag {
	var diags []diag
	for _, sups := range allow {
		for range sups {
			diags = append(diags, diag{"x"})
		}
	}
	return diags
}
`})
	wantFindings(t, got, `maprange: map iteration appends to "diags"`)
}

func TestCloseDefer(t *testing.T) {
	got := analyze(t, "qtrtest/internal/catalog", map[string]string{"a.go": `package catalog
import "os"
func bad(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}
func good(name string) (err error) {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return nil
}
`})
	wantFindings(t, got, "closedefer: deferred Close() drops its error")
}

// TestCloseDeferNoError: a Close without an error result is fine to defer.
func TestCloseDeferNoError(t *testing.T) {
	got := analyze(t, "qtrtest/internal/catalog", map[string]string{"a.go": `package catalog
type c struct{}
func (c) Close() {}
func f() {
	var x c
	defer x.Close()
}
`})
	wantFindings(t, got)
}

func TestMapFmt(t *testing.T) {
	src := map[string]string{"a.go": `package verify
import "fmt"
func bad(m map[string]int) string { return fmt.Sprintf("m=%v", m) }
func alsoBad(m map[string]int) error { return fmt.Errorf("state: %v", m) }
func good(m map[string]int) string { return fmt.Sprintf("%d entries", len(m)) }
`}
	wantFindings(t, analyze(t, "qtrtest/internal/verify", src),
		"mapfmt: map-typed value formatted by fmt.Sprintf in report path",
		"mapfmt: map-typed value formatted by fmt.Errorf in report path")
	// The same code outside the report-path set is not flagged.
	wantFindings(t, analyze(t, "qtrtest/internal/scratch", src))
}

// TestMapFmtReportPathCoversResultAffecting: the report-path set is a
// superset of the result-affecting one, so fuzz/exec formatting is covered
// too.
func TestMapFmtReportPathCoversResultAffecting(t *testing.T) {
	got := analyze(t, "qtrtest/internal/fuzz", map[string]string{"a.go": `package fuzz
import "fmt"
func dump(counts map[int]int) { fmt.Println(counts) }
`})
	wantFindings(t, got, "mapfmt: map-typed value formatted by fmt.Println")
}

func TestMapFmtSuppression(t *testing.T) {
	got := analyze(t, "qtrtest/cmd/qtrtest", map[string]string{"a.go": `package main
import "fmt"
//qtrlint:allow mapfmt single-key map rendered for a debug trace
func dump(m map[string]int) string { return fmt.Sprint(m) }
`})
	wantFindings(t, got)
}

// TestDeterministicOrderAcrossFiles: diagnostics come out sorted by file
// and line regardless of map-ordered internals — the determinism bar this
// tool holds the rest of the repository to.
func TestDeterministicOrderAcrossFiles(t *testing.T) {
	srcs := map[string]string{
		"b.go": "package exec\n//qtrlint:allow wallclock nothing here\nfunc b() {}\n",
		"a.go": "package exec\n//qtrlint:allow wallclock nothing here either\nfunc a() {}\n",
		"c.go": "package exec\n//qtrlint:allow wallclock nor here\nfunc c() {}\n",
	}
	var prev []string
	for i := 0; i < 5; i++ {
		got := analyze(t, "qtrtest/internal/exec", srcs)
		if len(got) != 3 {
			t.Fatalf("got %d findings, want 3: %v", len(got), got)
		}
		if i > 0 && strings.Join(got, "|") != strings.Join(prev, "|") {
			t.Fatalf("diagnostic order changed between runs:\n%v\n%v", prev, got)
		}
		prev = got
	}
	for i, want := range []string{"a.go", "b.go", "c.go"} {
		if !strings.Contains(prev[i], want) {
			t.Errorf("finding %d = %q, want file %s (unused suppressions sort by file)", i, prev[i], want)
		}
	}
}
