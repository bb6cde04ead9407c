package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, dir, name string, doc Doc) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffWarningTitleCarriesPercent(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", Doc{Results: []Result{
		{Name: "InsertAll", NsPerOp: Stat{Mean: 100}},
		{Name: "FindAll", NsPerOp: Stat{Mean: 100}},
	}})
	newPath := writeDoc(t, dir, "new.json", Doc{Results: []Result{
		{Name: "InsertAll", NsPerOp: Stat{Mean: 150}},
		{Name: "FindAll", NsPerOp: Stat{Mean: 101}},
	}})
	var out strings.Builder
	diff(&out, oldPath, newPath, 10)
	got := out.String()
	if !strings.Contains(got, "::warning title=benchmark regression (+50.0%)::InsertAll:") {
		t.Errorf("warning title missing the percent delta:\n%s", got)
	}
	if strings.Contains(got, "::warning") && strings.Contains(got, "FindAll: mean") == false {
		t.Errorf("in-threshold row should be a plain delta line:\n%s", got)
	}
	if !strings.Contains(got, "1 row(s) regressed") {
		t.Errorf("missing regression summary:\n%s", got)
	}
}

// TestDiffToleratesMissingAndDegenerateRows pins the panic-free paths:
// a baseline row absent from the fresh run, a fresh row with no
// baseline, and a baseline row whose mean is zero must all produce
// informational lines, never warnings or a crash.
func TestDiffToleratesMissingAndDegenerateRows(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", Doc{Results: []Result{
		{Name: "Retired", NsPerOp: Stat{Mean: 42}},
		{Name: "Degenerate", NsPerOp: Stat{Mean: 0}},
	}})
	newPath := writeDoc(t, dir, "new.json", Doc{Results: []Result{
		{Name: "Fresh", NsPerOp: Stat{Mean: 7}},
		{Name: "Degenerate", NsPerOp: Stat{Mean: 5}},
	}})
	var out strings.Builder
	diff(&out, oldPath, newPath, 10)
	got := out.String()
	for _, want := range []string{
		"new row Fresh: 7 ns/op (no baseline)",
		"skipped row Degenerate: baseline mean is 0 ns/op",
		"removed row Retired (was 42 ns/op)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "::warning") {
		t.Errorf("no row should warn here:\n%s", got)
	}
}

// TestParseAggregatesRuns pins the conversion path end to end on a
// synthetic -bench stream: repeated runs fold into min/mean/max ns/op,
// rows sort by name, and the header lines land in the document.
func TestParseAggregatesRuns(t *testing.T) {
	in := strings.NewReader(`goos: linux
goarch: amd64
pkg: phasehash/internal/core
BenchmarkInsertAll 	   10000	       950 ns/op	       120 B/op	       2 allocs/op
BenchmarkInsertAll 	   10000	      1050 ns/op	       120 B/op	       2 allocs/op
BenchmarkFindAll 	     100	    500000 ns/op	      4096 elems/op
`)
	doc, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(doc.Results), doc.Results)
	}
	if doc.Results[0].Name != "FindAll" {
		t.Fatalf("results not sorted by name: %+v", doc.Results)
	}
	ins := doc.Results[1]
	if ins.Runs != 2 || ins.NsPerOp != (Stat{Min: 950, Mean: 1000, Max: 1050}) {
		t.Errorf("InsertAll aggregation: runs=%d ns/op=%+v, want 2 and 950/1000/1050", ins.Runs, ins.NsPerOp)
	}
	if ins.Pkg != "phasehash/internal/core" || doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Errorf("header fields not captured: %+v", doc)
	}
}

// TestParseAndDiffKeyRowsByPackage feeds two packages that report the
// same benchmark name: parse keeps one row per package, each labelled
// with its own pkg line, and diff matches rows on package and name.
func TestParseAndDiffKeyRowsByPackage(t *testing.T) {
	in := strings.NewReader(`pkg: phasehash/internal/core
BenchmarkInsertAll 	     100	    100 ns/op
pkg: phasehash/internal/tables
BenchmarkInsertAll 	     100	    300 ns/op
`)
	doc, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("got %d results, want one per package: %+v", len(doc.Results), doc.Results)
	}
	if r := doc.Results[0]; r.Pkg != "phasehash/internal/core" || r.NsPerOp.Mean != 100 {
		t.Errorf("core row = %+v", r)
	}
	if r := doc.Results[1]; r.Pkg != "phasehash/internal/tables" || r.NsPerOp.Mean != 300 {
		t.Errorf("tables row = %+v", r)
	}

	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", doc)
	newPath := writeDoc(t, dir, "new.json", Doc{Results: []Result{
		{Pkg: "phasehash/internal/tables", Name: "InsertAll", NsPerOp: Stat{Mean: 330}},
		{Pkg: "phasehash/internal/core", Name: "InsertAll", NsPerOp: Stat{Mean: 100}},
	}})
	var out strings.Builder
	diff(&out, oldPath, newPath, 50)
	got := out.String()
	for _, want := range []string{
		"phasehash/internal/tables.InsertAll: mean 300 -> 330 ns/op (+10.0%)",
		"phasehash/internal/core.InsertAll: mean 100 -> 100 ns/op (+0.0%)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "new row") || strings.Contains(got, "removed row") {
		t.Errorf("rows failed to match on package and name:\n%s", got)
	}
}

// TestDiffGeomeanPerSuite pins the summary rows: variants of one
// benchmark fold into one per-suite geomean (a 2x regression and a 2x
// improvement cancel to 1.000x), flat names form their own suite, and
// an overall geomean covers every compared row. Rows without a
// baseline contribute nothing.
func TestDiffGeomeanPerSuite(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", Doc{Results: []Result{
		{Name: "InsertAll/kind=a-8", NsPerOp: Stat{Mean: 100}},
		{Name: "InsertAll/kind=b-8", NsPerOp: Stat{Mean: 100}},
		{Name: "FindAll-8", NsPerOp: Stat{Mean: 100}},
	}})
	newPath := writeDoc(t, dir, "new.json", Doc{Results: []Result{
		{Name: "InsertAll/kind=a-8", NsPerOp: Stat{Mean: 200}},
		{Name: "InsertAll/kind=b-8", NsPerOp: Stat{Mean: 50}},
		{Name: "FindAll-8", NsPerOp: Stat{Mean: 110}},
		{Name: "Fresh-8", NsPerOp: Stat{Mean: 5}},
	}})
	var out strings.Builder
	diff(&out, oldPath, newPath, 1000)
	got := out.String()
	for _, want := range []string{
		"geomean InsertAll: 1.000x (+0.0%) over 2 row(s)",
		"geomean FindAll-8: 1.100x (+10.0%) over 1 row(s)",
		"geomean all: 1.032x (+3.2%) over 3 row(s)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
}

// TestDiffReturnsGeomeanForGating pins the -fail -geomean contract:
// diff reports both the per-row regression count and the overall
// geomean delta, and opposite swings that individually breach the
// threshold cancel in the geomean — so the geomean gate passes a run
// the per-row gate would flake on.
func TestDiffReturnsGeomeanForGating(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", Doc{Results: []Result{
		{Name: "InsertAll", NsPerOp: Stat{Mean: 100}},
		{Name: "FindAll", NsPerOp: Stat{Mean: 100}},
	}})
	newPath := writeDoc(t, dir, "new.json", Doc{Results: []Result{
		{Name: "InsertAll", NsPerOp: Stat{Mean: 105}},
		{Name: "FindAll", NsPerOp: Stat{Mean: 100.0 / 1.05}},
	}})
	var out strings.Builder
	regressions, geomeanPct := diff(&out, oldPath, newPath, 1)
	if regressions != 1 {
		t.Errorf("regressions = %d, want 1 (only the +5%% row breaches)", regressions)
	}
	if geomeanPct > 0.01 || geomeanPct < -0.01 {
		t.Errorf("geomeanPct = %v, want ~0 (+5%% and -4.8%% cancel)", geomeanPct)
	}
}

func TestAccumStatEmpty(t *testing.T) {
	var a accum
	if got := a.stat(); got != (Stat{}) {
		t.Fatalf("empty accum stat = %+v, want zero", got)
	}
}
