package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// binDir holds cmd/phserver and this benchmark, built once by TestMain.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "phasehash-benchmark")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	for _, target := range [][2]string{{"phserver", "phasehash/cmd/phserver"}, {"benchmark", "."}} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, target[0]), target[1]).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", target[1], err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny is a configuration every workload finishes in well under a second.
func tiny(t *testing.T, workload string) config {
	return config{workload: workload, seed: 7, seconds: 0.2, scale: 1.0 / 4096, root: "..",
		phserver: filepath.Join(binDir, "phserver"), out: t.TempDir()}
}

func names(decls []metricDecl) []string {
	var ns []string
	for _, d := range decls {
		ns = append(ns, d.Name)
	}
	return ns
}

func measured(t *testing.T, rep report) []string {
	var ns []string
	for _, m := range rep.Metrics {
		ns = append(ns, m.Name)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", m.Name, m.Value)
		}
	}
	return ns
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

func TestEveryWorkloadAtTinyScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runPass(w, tiny(t, w.name), false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("untraced pass: correct=%v failed=%d attempted=%d errors=%v", rep.Correct, rep.Failed, rep.Attempted, rep.Errors)
			}
			if got := measured(t, rep); !sameSet(got, names(endToEnd)) {
				t.Errorf("untraced pass measured %v, want the end-to-end metrics %v", got, names(endToEnd))
			}
			for _, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
				}
			}

			rep, err = runPass(w, tiny(t, w.name), true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced pass: correct=%v failed=%d errors=%v", rep.Correct, rep.Failed, rep.Errors)
			}
			if got := measured(t, rep); !sameSet(got, append(names(endToEnd), names(perLayer)...)) {
				t.Errorf("traced pass measured %v", got)
			}
		})
	}
}

// dropOne is a container whose Elements loses one key.
type dropOne struct{ bulkSet }

func (d dropOne) Elements() []uint64 { return d.bulkSet.Elements()[1:] }

func TestDroppedElementCountsAsFailed(t *testing.T) {
	for _, name := range []string{"table1-flat", "resident-compact"} {
		cfg := tiny(t, name)
		cfg.wrap = func(s bulkSet) bulkSet { return dropOne{s} }
		w, _ := workloadByName(name)
		rep, err := runPass(w, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed < 1 {
			t.Errorf("%s: a container dropping one element gave correct=%v failed=%d", name, rep.Correct, rep.Failed)
		}
	}
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, the benchmark prints %+v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v, the benchmark prints %+v", spec.PerLayer, perLayer)
	}
	var declared, registered []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		registered = append(registered, w.name+": "+w.why)
	}
	if !slices.Equal(declared, registered) {
		t.Errorf("BENCHMARK.json workloads = %q, the benchmark runs %q", declared, registered)
	}
}

// runBinary runs the built benchmark and returns its exit code and the
// metric names of its last output line.
func runBinary(t *testing.T, env []string, args ...string) (int, []string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "benchmark"), append([]string{"-root", "..", "-out", t.TempDir(),
		"-phserver", filepath.Join(binDir, "phserver"), "-scale", fmt.Sprint(1.0 / 4096)}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		code = cmd.ProcessState.ExitCode()
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line %q: %v (stderr: %s)", lines[len(lines)-1], err, stderr.String())
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
			t.Errorf("result %+v", last)
		}
	}
	var got []string
	for name, m := range last.Metrics {
		got = append(got, name)
		if m.Unit != unitOf(name) {
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unitOf(name))
		}
	}
	return code, got
}

func TestCommandPrintsDeclaredMetrics(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  []metricDecl
	}{{"0", endToEnd}, {"1", perLayer}} {
		code, got := runBinary(t, nil, "--workload", "stream-grow", "--seed", "3", "--seconds", "0.2", "--trace", tc.trace)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d", tc.trace, code)
		}
		if !sameSet(got, names(tc.want)) {
			t.Errorf("--trace %s printed %v, want %v", tc.trace, got, names(tc.want))
		}
	}
}

func TestCommandRefusesBadRuns(t *testing.T) {
	if code, _ := runBinary(t, nil, "-workload", "no-such-workload"); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	over := fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()+1)
	if code, _ := runBinary(t, []string{over}, "-workload", "table1-flat", "-seconds", "0.2"); code == 0 {
		t.Errorf("an oversubscribed run (%s) exited 0", over)
	}
}
