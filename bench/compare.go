package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadBenchmarkSpec reads BENCHMARK.json from the repository root, whether
// the process runs there (bench/run.sh) or in bench/ (go test).
func loadBenchmarkSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

func loadReports(path string) (reportFile, error) {
	var f reportFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects, per workload, the reported value of the named metric
// over every timed run in the file.
func (f reportFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == metric && m.N > 0 {
				out = append(out, m.Median)
			}
		}
	}
	return out
}

// verdict judges one (workload, metric) pair: the change of the median from
// old to new, signed so that positive is worse, against the metric's bound.
// When either side's runs spread wider than the bound the pair is
// unresolved, not unchanged.
type verdict struct {
	workload, metric                     string
	oldMedian, newMedian, worse, spreads float64
	status                               string
}

func judge(spec metricSpec, workload string, old, new []float64) verdict {
	v := verdict{workload: workload, metric: spec.Name}
	if len(old) == 0 || len(new) == 0 {
		v.status = "missing"
		return v
	}
	v.oldMedian, v.newMedian = quantile(old, 0.5), quantile(new, 0.5)
	v.worse = (v.newMedian - v.oldMedian) / v.oldMedian
	if spec.Better == "higher" {
		v.worse = -v.worse
	}
	v.spreads = max(spread(old), spread(new))
	switch {
	case len(old) > 1 && len(new) > 1 && v.spreads > spec.Bound:
		v.status = "unresolved"
	case v.worse > spec.Bound:
		v.status = "REGRESSION"
	default:
		v.status = "ok"
	}
	return v
}

// compareReports prints, per workload and end-to-end metric, how the runs
// in newPath differ from those in oldPath, and exits non-zero when a metric
// got worse by more than its bound or more passes failed.
func compareReports(oldPath, newPath string) int {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	old, err := loadReports(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	new, err := loadReports(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("# old: %s commit=%s   new: %s commit=%s\n", oldPath, old.Header.Commit, newPath, new.Header.Commit)
	fmt.Printf("%-12s %-26s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "spread", "verdict")
	bad := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v := judge(m, w.Name, old.values(w.Name, m.Name), new.values(w.Name, m.Name))
			fmt.Printf("%-12s %-26s %14.6g %14.6g %+8.1f%% %7.0f%% %7.1f%%  %s\n", v.workload, v.metric,
				v.oldMedian, v.newMedian, 100*v.worse, 100*m.Bound, 100*v.spreads, v.status)
			if v.status == "REGRESSION" || v.status == "missing" {
				bad++
			}
		}
		oldFailed, newFailed := failedShare(old, w.Name), failedShare(new, w.Name)
		status := "ok"
		if newFailed > oldFailed {
			status = "REGRESSION"
			bad++
		}
		fmt.Printf("%-12s %-26s %14.6g %14.6g %37s  %s\n", w.Name, "failed_share", oldFailed, newFailed, "", status)
	}
	if bad > 0 {
		fmt.Printf("%d regression(s)\n", bad)
		return 1
	}
	return 0
}

// failedShare is failed passes over attempted ones, over the workload's
// runs in the file. Its bound is zero: any increase is a regression.
func failedShare(f reportFile, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
