package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"genealog/internal/harness"
)

var update = flag.Bool("update", false, "re-record expected/*.json from a check pass at the default seed")

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames asserts that a run emitted exactly the declared metrics, each
// once and with the declared unit.
func checkNames(t *testing.T, run string, declared []metricSpec, rep runReport) {
	t.Helper()
	for _, e := range rep.Errors {
		t.Errorf("%s: %s", run, e)
	}
	if !rep.Correct || rep.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", run, rep.Correct, rep.Attempted, rep.Failed)
	}
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	seen := map[string]int{}
	for _, m := range rep.Metrics {
		seen[m.Name]++
		unit, ok := want[m.Name]
		switch {
		case !ok:
			t.Errorf("%s emits %s, which BENCHMARK.json does not declare", run, m.Name)
		case unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", run, m.Name, m.Unit, unit)
		case m.N == 0:
			t.Errorf("%s: %s has no sample", run, m.Name)
		}
	}
	for name := range want {
		if seen[name] != 1 {
			t.Errorf("%s emits %s %d times, want once", run, name, seen[name])
		}
	}
}

// TestBenchmarkContract runs every workload, timed and traced, at toy size
// and checks the output against BENCHMARK.json.
func TestBenchmarkContract(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	names := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if names[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		names[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	tr := newTracer()
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the benchmark", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, want at most 200", w.name, len(w.why))
		}
		cfg := runConfig{seed: defaultSeed, seconds: 1, repeats: 1, outDir: t.TempDir(), toy: true}
		checkNames(t, w.name+" timed", spec.EndToEnd, measure(w, cfg))
		traced, sec := traceRun(w, cfg, tr)
		checkNames(t, w.name+" traced", spec.PerLayer, traced)
		if sec.Bottleneck == "" || len(sec.PlanNodes) == 0 {
			t.Errorf("%s traced: bottleneck %q, %d plan nodes", w.name, sec.Bottleneck, len(sec.PlanNodes))
		}
	}
	// One tracer serves the whole invocation: every workload's spans are
	// still there at the end, under their own workload's name.
	spans := map[string]int{}
	for _, s := range tr.finish() {
		spans[s.Workload]++
		if s.EndNs < s.StartNs || s.SelfNs < 0 {
			t.Errorf("span %d (%s) runs from %d to %d with self time %d", s.ID, s.Name, s.StartNs, s.EndNs, s.SelfNs)
		}
	}
	for _, w := range workloads {
		if spans[w.name] < 10 {
			t.Errorf("%s: %d spans at the end of the traced invocation", w.name, spans[w.name])
		}
	}
}

// TestExpectedDigests re-records expected/<workload>.json when run with
// -update. Without it there is nothing to do: every timed run at the default
// seed compares its check pass with those files.
func TestExpectedDigests(t *testing.T) {
	if !*update {
		t.Skip("run with -update to re-record expected/*.json")
	}
	for _, w := range workloads {
		rep := runReport{}
		got := checkPass(w, runConfig{seed: defaultSeed, seconds: 10, outDir: t.TempDir()}, &rep).got
		if got.Sinks == 0 {
			t.Fatalf("%s: the check pass delivered no provenance: %v", w.name, rep.Errors)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("expected", w.name+".json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFailedRunStillReportsAResult(t *testing.T) {
	ok := runReport{Workload: "a", Attempted: 3, Correct: true}
	ok.add("m", "s", 1, 2, 3)
	failed := runReport{Workload: "b", Attempted: 2, Failed: 2}
	failed.add("m", "s") // every pass failed: no sample

	res := newResult([]runReport{ok, failed})
	if res.Correct || res.Attempted != 5 || res.Failed != 2 {
		t.Errorf("result is %+v, want correct=false attempted=5 failed=2", res)
	}
	if v, has := res.Metrics["a/m"]; !has || v.Value != 2 {
		t.Errorf("a/m is %+v, want the median 2", v)
	}
	if _, has := res.Metrics["b/m"]; has {
		t.Error("a metric without a sample is in the result")
	}
	if res := newResult([]runReport{ok}); !res.Correct || res.Metrics["m"].Value != 2 {
		t.Errorf("a correct single-workload result is %+v", res)
	}
}

func TestReferenceCountsMatchTheEngine(t *testing.T) {
	// runPass fails a pass whose sink count differs from the reference
	// replay, so a passing NP pass on another seed shows the naive
	// restatements of Q1 and Q4 agree with the engine.
	for _, name := range []string{"lr-q1-intra", "sg-q4-intra"} {
		w, _ := workloadByName(name)
		cfg := runConfig{seed: 99, seconds: 1, outDir: t.TempDir()}
		in, err := w.prepare(cfg.seed, w.length/4)
		if err != nil {
			t.Fatal(err)
		}
		if in.sinks == 0 {
			t.Fatalf("%s: the reference expects no sink tuple", name)
		}
		if res := runPass(w.pass(in, harness.ModeNP, "reference", cfg)); res.err != nil {
			t.Error(res.err)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "m", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "m", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name     string
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower", lower, steady, []float64{120, 121, 119, 120, 120}, "REGRESSION"},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{"lower throughput", higher, steady, []float64{80, 81, 79, 80, 80}, "REGRESSION"},
		{"noisy", lower, steady, []float64{90, 150, 60, 120, 100}, "unresolved"},
		{"missing", lower, steady, nil, "missing"},
	} {
		if got := judge(c.spec, "w", c.old, c.new).status; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// is [3.5, 24.0, 160.0].
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
}
