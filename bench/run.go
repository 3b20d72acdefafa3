package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"genealog/internal/core"
	"genealog/internal/harness"
)

const (
	// timedPairs is the number of interleaved NP/GL pass pairs a run times.
	timedPairs = 10
	// setupProbes is the number of times a run sets the workload up; the
	// median is setup_s. A set-up takes a tenth of a millisecond and moves
	// by half of that, so it takes this many for a median that repeats.
	setupProbes = 200
	// storeOpens and storeLookups size the read-back of the check pass's
	// provenance log. One open of a small log moves between 14 and 26 ms in
	// one process, so the median is taken over this many.
	storeOpens   = 21
	storeLookups = 1000
	// heapSamples is how many times the memory pass stops the source and
	// measures the live heap.
	heapSamples = 10
)

// metric is one named measurement of a run.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	summary
	// Samples are the measurements the summary was taken over, in the
	// order they were made.
	Samples []float64 `json:"samples"`
}

// runReport is everything one run of one workload produced.
type runReport struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Size      string   `json:"size"`
	Tuples    int      `json:"tuples_per_pass"`
	Sinks     int      `json:"sinks_per_pass"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`
}

func (r *runReport) add(name, unit string, samples ...float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, summary: summarize(samples), Samples: samples})
}

// record counts one pass and keeps its error.
func (r *runReport) record(res passResult) bool {
	r.Attempted++
	if res.err != nil {
		r.Failed++
		r.Errors = append(r.Errors, res.err.Error())
		return false
	}
	return true
}

// runConfig is the command line of one run.
type runConfig struct {
	seed    int64
	seconds int
	repeats int
	outDir  string
	// toy divides every size by toyScale: a smoke test of every pass and
	// probe whose numbers mean nothing. Only bench_test.go sets it.
	toy bool
}

const toyScale = 20

// size shrinks a probe's size in a toy run.
func (c runConfig) size(n int) int {
	if c.toy {
		n /= toyScale
	}
	return max(n, 1)
}

// length shrinks an event-time length in a toy run, but never below what
// the workload's query needs to deliver a sink tuple.
func (c runConfig) length(w workload, n int) int {
	return max(c.size(n), w.minLength())
}

// timedLength stretches the workload's event-time length with -seconds;
// width never changes.
func (c runConfig) timedLength(w workload) int {
	return c.length(w, w.length*c.seconds/10)
}

// prepare builds the input of the given length and fills in the sink count
// a correct run must deliver.
func (w workload) prepare(seed int64, length int) (input, error) {
	in := w.newInput(seed, length)
	sinks, err := w.referenceSinks(in)
	if err != nil {
		return in, fmt.Errorf("%s: reference replay: %w", w.name, err)
	}
	in.sinks = sinks
	return in, nil
}

func (w workload) pass(in input, mode harness.Mode, label string, cfg runConfig) passConfig {
	c := passConfig{w: w, in: in, mode: mode, label: w.name + "/" + label, rate: w.rate,
		deadline: time.Duration(cfg.seconds)*1500*time.Millisecond + 10*time.Second}
	if w.store {
		c.storePath = storeFile(cfg.outDir, w.name+"-"+label)
	}
	return c
}

// measure runs the workload's timed passes, memory pass and check pass and
// returns the end-to-end metrics.
func measure(w workload, cfg runConfig) runReport {
	length := cfg.timedLength(w)
	rep := runReport{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Size: w.sizeString(length)}
	in, err := w.prepare(cfg.seed, length)
	if err != nil {
		rep.record(passResult{err: err})
		return rep
	}
	rep.Tuples, rep.Sinks = in.tuples, in.sinks
	tuples := float64(in.tuples)

	setup := measureSetup(w, cfg, &rep)

	var np, gl, ratio, cpu, alloc []float64
	var latencies []int64
	for i := 0; i < cfg.repeats; i++ {
		// NP and GL alternate which goes first, so neither always runs on
		// the heap the other left behind.
		timed := func(m harness.Mode) passResult {
			return runPass(w.pass(in, m, fmt.Sprintf("%s-%d", m, i), cfg))
		}
		var n, g passResult
		if i%2 == 0 {
			n, g = timed(harness.ModeNP), timed(harness.ModeGL)
		} else {
			g, n = timed(harness.ModeGL), timed(harness.ModeNP)
		}
		if okN, okG := rep.record(n), rep.record(g); !okN || !okG {
			continue
		}
		np = append(np, n.tuplesPerSec(in.tuples))
		gl = append(gl, g.tuplesPerSec(in.tuples))
		ratio = append(ratio, g.tuplesPerSec(in.tuples)/n.tuplesPerSec(in.tuples))
		cpu = append(cpu, float64(g.cpuNs)/tuples)
		alloc = append(alloc, float64(g.allocBytes)/tuples)
		if w.rate > 0 {
			latencies = append(latencies, g.latenciesNs...)
		}
	}

	// The latency passes are open loops: a paced workload's own timed
	// passes, one extra pass at the workload's latency rate otherwise.
	if w.rate == 0 {
		latIn, err := w.prepare(cfg.seed, cfg.length(w, w.latencyLength*cfg.seconds/10))
		lat := w.pass(latIn, harness.ModeGL, "latency", cfg)
		lat.rate = w.latencyRate
		res := passResult{err: err}
		if err == nil {
			res = runPass(lat)
		}
		rep.record(res)
		latencies = res.latenciesNs
	}

	mem := w.pass(in, harness.ModeGL, "mem", cfg)
	heap := heapSampler{every: max(in.tuples/cfg.size(heapSamples), 1)}
	mem.onEmit = heap.onEmit
	rep.record(runPass(mem))

	chk := checkPass(w, cfg, &rep)

	rep.add("setup_s", "s", setup...)
	rep.add("np_throughput_tps", "1/s", np...)
	rep.add("gl_throughput_tps", "1/s", gl...)
	rep.add("gl_np_throughput_ratio", "ratio", ratio...)
	rep.add("gl_cpu_ns_per_tuple", "ns", cpu...)
	rep.add("gl_alloc_bytes_per_tuple", "B", alloc...)
	rep.add("gl_heap_live_peak_mb", "MB", at(scale(heap.liveBytes, 1.0/(1<<20)), 1)...)
	lat := scale(toFloats(latencies), 1e-6)
	rep.add("gl_latency_p50_ms", "ms", at(lat, 0.5)...)
	rep.add("gl_latency_p99_ms", "ms", at(lat, 0.99)...)
	rep.add("prov_open_s", "s", chk.store.openS...)
	rep.add("prov_query_p50_us", "us", chk.store.lookupsUs...)
	rep.Correct = rep.Failed == 0
	return rep
}

// measureSetup sets the workload up several times on a one-step input and
// times each from the first builder call to the first emitted tuple:
// generator, wire registration, Build, store create and operator start.
func measureSetup(w workload, cfg runConfig, rep *runReport) []float64 {
	in, err := w.prepare(cfg.seed, 1)
	if err != nil {
		rep.record(passResult{err: err})
		return nil
	}
	var out []float64
	for i := 0; i < cfg.size(setupProbes); i++ {
		c := w.pass(in, harness.ModeGL, fmt.Sprintf("setup-%d", i), cfg)
		c.rate = 0 // a paced source would only add its first sleep
		var first time.Time
		c.onEmit = func(core.Tuple) {
			if first.IsZero() {
				first = time.Now()
			}
		}
		res := runPass(c)
		if rep.record(res) {
			out = append(out, first.Sub(res.begin).Seconds())
		}
	}
	return out
}

// checkResult is what the check pass verified and read back.
type checkResult struct {
	res   passResult
	store storeQueries
	dig   digest
	// got is the pass's outcome in the form expected/<workload>.json records.
	got expectation
}

// checkPass runs one GL pass of the workload's recorded length with the
// observation hooks on: every assembled provenance result is fingerprinted
// and persisted to a file log, which is then opened and queried. At the
// default seed the fingerprint must equal bench/expected/<workload>.json.
// The pass and its verification each count as one attempt.
func checkPass(w workload, cfg runConfig, rep *runReport) checkResult {
	var out checkResult
	length := cfg.length(w, w.length)
	in, err := w.prepare(cfg.seed, length)
	if err != nil {
		rep.record(passResult{err: err})
		return out
	}
	c := w.pass(in, harness.ModeGL, "check", cfg)
	c.storePath = storeFile(cfg.outDir, w.name+"-check")
	c.keepStore = true
	c.onProvenance = out.dig.add
	out.res = runPass(c)
	defer os.Remove(c.storePath)
	if !rep.record(out.res) {
		return out
	}
	verify := func() error {
		if out.dig.err != nil {
			return out.dig.err
		}
		out.got = expectation{Seed: cfg.seed, Length: length, Sinks: out.dig.results, Sources: out.dig.sources, Digest: out.dig.hex()}
		if cfg.seed == defaultSeed && !cfg.toy {
			want, err := loadExpectation(w.name)
			if err != nil {
				return err
			}
			if out.got != want {
				return fmt.Errorf("provenance digest %+v, want %+v", out.got, want)
			}
		}
		out.store, err = queryStore(c.storePath, storeOpens, storeLookups, rand.New(rand.NewSource(cfg.seed)))
		if err != nil {
			return err
		}
		if out.store.sinks != out.res.sinks {
			return fmt.Errorf("provenance log holds %d sink entries, the run delivered %d", out.store.sinks, out.res.sinks)
		}
		return nil
	}
	if err = verify(); err != nil {
		err = fmt.Errorf("%s/check: %w", w.name, err)
	}
	rep.record(passResult{err: err})
	return out
}
