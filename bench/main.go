// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the engine sees, per-layer metrics from
// micro-probes and a traced run, and the output checks, behind one command.
// BENCHMARK.json at the repository root names every metric and its bound;
// README.md in this directory explains the workloads and how the metrics
// interact.
//
//	bash bench/run.sh                                   # every workload, timed
//	bash bench/run.sh --trace 1                         # per-layer metrics + bench/out/trace.json
//	bash bench/run.sh -json a.json                      # append the runs to a.json
//	bash bench/run.sh -compare a.json b.json            # judge b against a with BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// outDir holds what a run writes: the trace file, and provenance logs for as
// long as the pass that wrote them is being read back.
const outDir = "bench/out"

// header describes the machine and the build a report was measured on.
type header struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// reportFile is the document -json writes and -compare reads: one header
// and every run appended to the file so far.
type reportFile struct {
	Header header      `json:"header"`
	Runs   []runReport `json:"runs"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the benchmark also runs in checkouts without .git
	}
	return strings.TrimSpace(string(out))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", defaultSeed, "seed of every generator")
	seconds := fs.Int("seconds", 10, "seconds the timed passes of one workload take at the seed commit")
	trace := fs.Int("trace", 0, "1 runs the traced pass and the per-layer probes instead of the timed passes")
	repeats := fs.Int("repeats", timedPairs, "interleaved NP/GL pass pairs per workload")
	jsonPath := fs.String("json", "", "append this invocation's runs to a report file")
	compare := fs.Bool("compare", false, "compare two report files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || *repeats < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeats must be at least 1, -trace 0 or 1")
		return 2
	}
	selected := workloads
	if *workloadFlag != "all" {
		w, ok := workloadByName(*workloadFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	hdr := header{NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(), Commit: commit()}
	fmt.Printf("# genealog bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d trace=%d\n",
		hdr.NumCPU, hdr.GOMAXPROCS, hdr.GoVersion, hdr.Commit, *seed, *seconds, *trace)

	cfg := runConfig{seed: *seed, seconds: *seconds, repeats: *repeats, outDir: outDir}
	tr := newTracer()
	var reports []runReport
	var sections []traceSection
	for _, w := range selected {
		var rep runReport
		if *trace == 1 {
			var sec traceSection
			rep, sec = traceRun(w, cfg, tr)
			printTrace(sec, tr.finish())
			sections = append(sections, sec)
		} else {
			rep = measure(w, cfg)
		}
		printReport(rep)
		reports = append(reports, rep)
	}
	code := 0
	if *trace == 1 {
		file := traceFile{Header: hdr, Seed: *seed, Workloads: sections, Spans: tr.finish()}
		if err := writeTrace(filepath.Join(outDir, "trace.json"), file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	if *jsonPath != "" {
		if err := appendReports(*jsonPath, hdr, reports); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	return max(code, printResult(reports))
}

func printReport(r runReport) {
	fmt.Printf("\n## %s  (%s, %d tuples and %d sink tuples per pass)\n", r.Workload, r.Size, r.Tuples, r.Sinks)
	fmt.Printf("%-44s %-6s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range r.Metrics {
		fmt.Printf("%-44s %-6s %14.6g %14.6g %14.6g %4d\n", m.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N)
	}
	fmt.Printf("passes: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("FAILED %s\n", e)
	}
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult folds the reports of one invocation into the result line. With
// several workloads the metric names are prefixed with the workload's. A
// metric whose passes all failed has no sample: it is left out and the
// result is not correct.
func newResult(reports []runReport) result {
	res := result{Correct: true, Metrics: map[string]resultValue{}}
	for _, r := range reports {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, m := range r.Metrics {
			if m.N == 0 || math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
				fmt.Fprintf(os.Stderr, "bench: %s: no sample of %s\n", r.Workload, m.Name)
				res.Correct = false
				continue
			}
			name := m.Name
			if len(reports) > 1 {
				name = r.Workload + "/" + name
			}
			res.Metrics[name] = resultValue{Value: m.Median, Unit: m.Unit}
		}
	}
	return res
}

// printResult always prints the result line, so that a failed pass shows as
// correct:false with its failed and attempted counts, and returns the exit
// code: 0 only for a correct run.
func printResult(reports []runReport) int {
	res := newResult(reports)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\n%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func appendReports(path string, hdr header, reports []runReport) error {
	var f reportFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Header = hdr
	f.Runs = append(f.Runs, reports...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
