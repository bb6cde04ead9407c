// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout and diffs two such documents. It exists for
// the always-on counter core's overhead gate (`make tune-overhead`),
// which builds the same benchmark twice from one tree (-tags nostats
// and untagged) and compares the two runs. Repeated runs of one
// benchmark (-count=N) are aggregated into min/mean/max ns/op so the
// documents are diffable without a benchstat dependency.
//
// Usage:
//
//	go test -bench . -count=5 ./internal/core | benchjson > run.json
//
// Rows are keyed by package and name (each row records the `pkg:` line
// it was reported under), so one document can hold several packages'
// benchmarks even when they share a name.
//
// With -diff it instead compares two such documents and annotates mean
// ns/op regressions beyond a threshold (default 10%) in the GitHub
// Actions `::warning` format, then summarizes each suite (benchmark
// name up to the first '/') with a geomean speedup row. The diff is
// informational by default (exit status 0); add -fail to exit 1 on any
// regression beyond the threshold, or -fail -geomean to exit 1 only
// when the *overall geomean* regresses beyond it (the overhead gate,
// where the threshold is a contract but single rows swing both ways
// with scheduler noise):
//
//	benchjson -diff -fail -geomean -threshold 1 nostats.json live.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result aggregates every run of one benchmark name in one package
// (including the -cpu suffix, so `BenchmarkInsertAll-2` and
// `BenchmarkInsertAll` are distinct rows).
type Result struct {
	Pkg     string `json:"pkg,omitempty"`
	Name    string `json:"name"`
	Runs    int    `json:"runs"`
	NsPerOp Stat   `json:"ns_per_op"`
}

// Stat is a min/mean/max summary over the runs.
type Stat struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

type accum struct{ vals []float64 }

func (a *accum) add(v float64) { a.vals = append(a.vals, v) }

func (a *accum) stat() Stat {
	if len(a.vals) == 0 {
		return Stat{}
	}
	s := Stat{Min: a.vals[0], Max: a.vals[0]}
	sum := 0.0
	for _, v := range a.vals {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(a.vals))
	return s
}

// Doc is the emitted JSON document.
type Doc struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	diffMode := flag.Bool("diff", false, "compare two benchjson documents (old new) instead of converting stdin")
	threshold := flag.Float64("threshold", 10, "regression threshold in percent for -diff annotations")
	failOnRegress := flag.Bool("fail", false, "with -diff: exit 1 when any row regresses beyond the threshold (default is informational, always exit 0)")
	failGeomean := flag.Bool("geomean", false, "with -diff -fail: gate on the overall geomean instead of single rows — per-row deltas that swing both ways cancel, only a systematic regression fails")
	flag.Parse()
	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		regressions, geomeanPct := diff(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if *failOnRegress {
			if *failGeomean {
				if geomeanPct > *threshold {
					fmt.Printf("::warning title=geomean regression (%+.1f%%)::overall geomean exceeds the %.0f%% threshold\n", geomeanPct, *threshold)
					os.Exit(1)
				}
			} else if regressions > 0 {
				os.Exit(1)
			}
		}
		return
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse converts `go test -bench` output into the aggregated document.
func parse(in io.Reader) (Doc, error) {
	var doc Doc
	type key struct{ pkg, name string }
	rows := map[key]*accum{}
	var order []key
	pkg := ""

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		k := key{pkg, f[0]}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		r := rows[k]
		if r == nil {
			r = &accum{}
			rows[k] = r
			order = append(order, k)
		}
		r.add(ns)
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}

	sort.Slice(order, func(i, j int) bool {
		if order[i].pkg != order[j].pkg {
			return order[i].pkg < order[j].pkg
		}
		return order[i].name < order[j].name
	})
	for _, k := range order {
		doc.Results = append(doc.Results, Result{
			Pkg:     k.pkg,
			Name:    strings.TrimPrefix(k.name, "Benchmark"),
			Runs:    len(rows[k].vals),
			NsPerOp: rows[k].stat(),
		})
	}
	return doc, nil
}

// diff compares two benchjson documents row by row (matched on package
// and name) and prints one line per common row: a GitHub Actions `::warning`
// annotation when the new mean ns/op regressed beyond threshold
// percent, a plain delta line otherwise. Rows present in only one
// document are listed but never warned about (new benchmarks appear,
// retired ones disappear; neither is a regression). After the rows it
// prints one geomean summary line per suite (the benchmark name up to
// its first '/', so every dist/kind/cpu variant folds into one ratio)
// plus an overall geomean — the per-row lines say which cell moved,
// the geomean rows say whether the change is systematic or noise.
// Returns the number of rows that regressed beyond the threshold and
// the overall geomean delta in percent; the caller decides whether
// either fails the run (-fail, -fail -geomean) or stays
// informational. The geomean gate exists for overhead contracts
// measured on noisy boxes: individual rows swing several percent in
// both directions run to run, but those swings cancel in the
// geomean, so only a cost paid by every row trips it.
func diff(w io.Writer, oldPath, newPath string, threshold float64) (int, float64) {
	oldDoc, err := readDoc(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	newDoc, err := readDoc(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	oldRows := map[string]Result{}
	for _, r := range oldDoc.Results {
		oldRows[label(r.Pkg, r.Name)] = r
	}
	regressions := 0
	ratios := map[string][]float64{}
	var suites []string
	for _, nr := range newDoc.Results {
		name := label(nr.Pkg, nr.Name)
		or, ok := oldRows[name]
		delete(oldRows, name)
		if !ok {
			fmt.Fprintf(w, "new row %s: %.0f ns/op (no baseline)\n", name, nr.NsPerOp.Mean)
			continue
		}
		if or.NsPerOp.Mean <= 0 {
			// A degenerate baseline row (zero or missing mean — e.g. a
			// truncated run, or a name that never produced ns/op) has no
			// meaningful delta. Note it rather than dividing by it.
			fmt.Fprintf(w, "skipped row %s: baseline mean is %.0f ns/op\n", name, or.NsPerOp.Mean)
			continue
		}
		suite := label(nr.Pkg, suiteOf(nr.Name))
		if _, seen := ratios[suite]; !seen {
			suites = append(suites, suite)
		}
		if nr.NsPerOp.Mean > 0 {
			ratios[suite] = append(ratios[suite], nr.NsPerOp.Mean/or.NsPerOp.Mean)
		}
		pct := (nr.NsPerOp.Mean - or.NsPerOp.Mean) / or.NsPerOp.Mean * 100
		if pct > threshold {
			regressions++
			// The percent delta goes in the annotation *title* so the
			// Actions UI summary line carries the magnitude without
			// expanding the message.
			fmt.Fprintf(w, "::warning title=benchmark regression (%+.1f%%)::%s: mean %.0f -> %.0f ns/op (threshold %.0f%%)\n",
				pct, name, or.NsPerOp.Mean, nr.NsPerOp.Mean, threshold)
		} else {
			fmt.Fprintf(w, "%s: mean %.0f -> %.0f ns/op (%+.1f%%)\n",
				name, or.NsPerOp.Mean, nr.NsPerOp.Mean, pct)
		}
	}
	var gone []string
	for name := range oldRows {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "removed row %s (was %.0f ns/op)\n", name, oldRows[name].NsPerOp.Mean)
	}
	sort.Strings(suites)
	var all []float64
	for _, suite := range suites {
		rs := ratios[suite]
		if len(rs) == 0 {
			continue
		}
		all = append(all, rs...)
		g := geomean(rs)
		fmt.Fprintf(w, "geomean %s: %.3fx (%+.1f%%) over %d row(s)\n", suite, g, (g-1)*100, len(rs))
	}
	if len(all) > 0 {
		g := geomean(all)
		fmt.Fprintf(w, "geomean all: %.3fx (%+.1f%%) over %d row(s)\n", g, (g-1)*100, len(all))
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d row(s) regressed beyond %.0f%%\n", regressions, threshold)
	}
	geomeanPct := 0.0
	if len(all) > 0 {
		geomeanPct = (geomean(all) - 1) * 100
	}
	return regressions, geomeanPct
}

// label names a row in diff output and keys it for matching: the
// package-qualified benchmark name, or the bare name for rows that
// carry no package.
func label(pkg, name string) string {
	if pkg == "" {
		return name
	}
	return pkg + "." + name
}

// suiteOf returns the suite a row aggregates under in the geomean
// summary: the benchmark name up to the first '/'. Flat names (no
// sub-benchmark path) form single-row suites of their own.
func suiteOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// geomean returns the geometric mean of the ratios (exp of the mean
// log), the right average for new/old speedup factors: a 2x regression
// and a 2x improvement cancel to 1.0 instead of averaging to 1.25.
func geomean(rs []float64) float64 {
	sum := 0.0
	for _, r := range rs {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(rs)))
}

// readDoc parses one benchjson document from disk.
func readDoc(path string) (Doc, error) {
	var doc Doc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}
