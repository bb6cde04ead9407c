// Command benchmark is phasehash's layered benchmark. One invocation runs
// one workload in its own process, checks every output against an
// oracle, and prints its metrics as JSON:
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this program and cmd/phserver from the checkout and runs
// it from the repository root. With -trace 0 the last line of standard
// output carries the end-to-end metrics. With -trace 1 it carries the
// per-layer metrics: the workload's repetitions alternate untraced and
// traced, the layers under its entry point are probed directly, and the
// spans are written to trace-<workload>.json. The line before the last
// is the full report: provenance, sample counts and detail numbers.
// README.md lists the workloads and what every metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one input set the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(p *pass) error
}

var workloads = []workload{
	{"table1-flat", "Set at the paper's Table 1 load on a working set far beyond L2: memory-bound probe kernels, few calls", runTable1Flat},
	{"dups-sharded", "ShardedSet on duplicate-heavy keys: radix partition plus owner-computes kernels on hot home cells", runDupsSharded},
	{"resident-compact", "CompactSet resident in L2 with read-heavy 1024-key calls: per-call dispatch and control-word scans", runResidentCompact},
	{"stream-grow", "GrowSet fed in 2^20-key calls from a small start: the only workload that migrates", runStreamGrow},
	{"apps-dedup-bfs", "remove-duplicates and grid BFS through the tables registry: one huge phase against ~150 small ones", runAppsDedupBFS},
	{"serve-loopback", "phserver over TCP loopback at fixed rates and saturated: wire, admission and the 1 ms linger", runServeLoopback},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	root     string
	phserver string
	out      string
	// wrap, when set, wraps every container the library workloads build
	// (tests use it to plant a faulty container).
	wrap func(bulkSet) bulkSet
}

// size scales a full-size input count by cfg.scale, rounded down to a
// power of two and raised to at least floor.
func (c config) size(full, floor int) int {
	n := int(float64(full) * c.scale)
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return max(p, floor)
}

// budget is the measured time of the run.
func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metric is one measured value.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	// Q1 and Q3 are the quartiles of a median's samples within the run.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

// report is everything one run measured.
type report struct {
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    []metric           `json:"metrics"`
	Detail     map[string]float64 `json:"detail,omitempty"`
}

func (r *report) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// pass accumulates one run's outcome. Only the workload's own goroutine
// touches it.
type pass struct {
	cfg config
	// tracer is nil in an untraced run; tr is the tracer while spans are
	// being recorded and nil otherwise (see traceRep).
	tracer    *tracer
	tr        *tracer
	ref       *reference
	attempted int64
	failed    int64
	wrong     bool
	errors    []string
	metrics   []metric
	detail    map[string]float64
}

// attempt counts n operations issued.
func (p *pass) attempt(n int) { p.attempted += int64(n) }

// expect records an oracle check: when ok is false, n operations
// returned a wrong result.
func (p *pass) expect(ok bool, n int, format string, args ...any) {
	if ok {
		return
	}
	p.wrong = true
	p.failed += int64(max(n, 1))
	if len(p.errors) < 16 {
		p.errors = append(p.errors, fmt.Sprintf(format, args...))
	}
}

// add records a declared metric.
func (p *pass) add(name string, v float64, samples int) {
	p.metrics = append(p.metrics, metric{Name: name, Unit: unitOf(name), Value: v, Samples: samples})
}

// addMedian records a declared metric as the median of samples taken
// within the run, with their quartiles.
func (p *pass) addMedian(name string, xs []float64) {
	p.metrics = append(p.metrics, metric{Name: name, Unit: unitOf(name), Value: median(xs), Samples: len(xs),
		Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)})
}

// traceRep switches span recording for measured repetition i: in a
// traced run odd repetitions record spans and even ones do not.
func (p *pass) traceRep(i int) {
	p.tr = nil
	if i%2 == 1 {
		p.tr = p.tracer
	}
}

// traceOverhead records, in a traced run, trace.overhead_frac: the median
// traced repetition time over the median untraced one, less one. It
// leaves span recording on for the layer probes that follow.
func (p *pass) traceOverhead(times []float64) {
	if p.tracer == nil {
		return
	}
	var plain, traced []float64
	for i, t := range times {
		if i%2 == 1 {
			traced = append(traced, t)
		} else {
			plain = append(plain, t)
		}
	}
	p.add("trace.overhead_frac", median(traced)/median(plain)-1, len(times))
	p.tr = p.tracer
}

// addRepMetrics records throughput_mops and latency_ms from a run's
// repetitions at nominal machine speed (see reference.go): repetition i
// did ops[i] operations over units rounds, and latency_ms is the time of
// one round. Their raw medians and the reference's go in the full
// report.
func (p *pass) addRepMetrics(b *bracketed, ops []float64, units int) {
	nominal := b.nominal()
	tput, lat := make([]float64, len(ops)), make([]float64, len(ops))
	rawTput, rawLat := make([]float64, len(ops)), make([]float64, len(ops))
	for i := range ops {
		tput[i], rawTput[i] = ops[i]/nominal[i]/1e3, ops[i]/b.reps[i]/1e3
		lat[i], rawLat[i] = nominal[i]/float64(units), b.reps[i]/float64(units)
	}
	p.addMedian("throughput_mops", tput)
	p.addMedian("latency_ms", lat)
	p.note("raw.throughput_mops", median(rawTput))
	p.note("raw.latency_ms", median(rawLat))
	p.note("reference_ms", median(b.ref))
}

// note records a workload detail number (full report only); a number
// that could not be measured is left out.
func (p *pass) note(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if p.detail == nil {
		p.detail = map[string]float64{}
	}
	p.detail[name] = v
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceMode int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceMode, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (repetitions alternate untraced and traced)")
	fs.Float64Var(&cfg.scale, "scale", 1, "input-size factor in (0, 1] (tests use tiny scales)")
	fs.StringVar(&cfg.root, "root", ".", "repository root, for provenance")
	fs.StringVar(&cfg.phserver, "phserver", "", "cmd/phserver binary built from this checkout (serve-loopback)")
	fs.StringVar(&cfg.out, "out", ".", "directory for trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(cfg.workload)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "benchmark: unknown -workload %q (want one of %s)\n", cfg.workload, strings.Join(names, ", "))
		return 2
	case cfg.seconds <= 0 || cfg.scale <= 0 || cfg.scale > 1:
		fmt.Fprintln(stderr, "benchmark: -seconds must be > 0 and -scale in (0, 1]")
		return 2
	case traceMode != 0 && traceMode != 1:
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if err := checkProcs(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}

	rep, err := runPass(w, cfg, traceMode == 1)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	decls := endToEnd
	if traceMode == 1 {
		decls = perLayer
	}
	line, err := contractLine(rep, decls)
	if err == nil {
		var full []byte
		if full, err = json.Marshal(rep); err == nil {
			fmt.Fprintln(stdout, string(full))
			fmt.Fprintln(stdout, string(line))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: wrong outputs: %s\n", w.name, strings.Join(rep.Errors, "; "))
		return 1
	}
	return 0
}

// runPass runs w once in this process. A traced run alternates untraced
// and traced repetitions, so the tracing overhead is a paired comparison
// under the same machine conditions, then probes the layers below the
// workload's entry point and writes the spans out.
func runPass(w workload, cfg config, traced bool) (report, error) {
	p := &pass{cfg: cfg}
	if traced {
		p.tracer = newTracer()
	}
	if err := w.run(p); err != nil {
		return report{}, err
	}
	if traced {
		p.add("trace.spans", float64(p.tracer.len()), 1)
		path := filepath.Join(cfg.out, "trace-"+w.name+".json")
		if err := p.tracer.write(path, w.name); err != nil {
			return report{}, fmt.Errorf("writing trace: %w", err)
		}
	}
	return report{
		Workload:   w.name,
		Traced:     traced,
		Provenance: collectProvenance(cfg),
		Correct:    !p.wrong,
		Attempted:  p.attempted,
		Failed:     p.failed,
		Errors:     p.errors,
		Metrics:    p.metrics,
		Detail:     p.detail,
	}, nil
}

// contractLine renders the last output line: correctness, operation
// counts and exactly the declared metrics, each with its unit.
func contractLine(rep report, decls []metricDecl) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(decls))
	for _, d := range decls {
		v, ok := rep.value(d.Name)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		ms[d.Name] = value{v, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, ms})
}

// checkProcs refuses oversubscribed runs: with more Go processors than
// CPUs, workers time-slice and every parallel number is meaningless.
func checkProcs() error {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d available CPUs; refusing an oversubscribed run", p, n)
	}
	return nil
}
