package main

import (
	"context"
	"fmt"
	"math"

	"genealog/internal/clickstream"
	"genealog/internal/core"
	"genealog/internal/harness"
	"genealog/internal/linearroad"
	"genealog/internal/ops"
	"genealog/internal/query"
	"genealog/internal/smartgrid"
)

// workload is one set of inputs the benchmark runs. Width (cars, meters,
// users) is fixed; a run is lengthened in event time only, because the
// seed's inter-process GL deployment deadlocks once a window outgrows the
// stream buffers (see README.md, "Hazards found while sizing").
type workload struct {
	name string
	why  string
	// query is the evaluation query every pass of the workload runs.
	query harness.QueryID
	// inter splits the query over three SPE instances on in-memory pipes.
	inter bool
	// batch is the stream batch size (0 = the engine default, 1).
	batch int
	// rate paces the source in tuples/s: the open loop. 0 is the closed
	// loop, where the source blocks on backpressure.
	rate float64
	// latencyRate paces the latency pass of a closed-loop workload, about a
	// quarter of the seed's GL peak: latency is only meaningful in an open
	// loop, where a slow engine grows a backlog instead of slowing its load.
	// latencyLength is that pass's event-time length at -seconds 10, about
	// 1.5 s at latencyRate.
	latencyRate   float64
	latencyLength int
	// store attaches a file-log provenance store to every GL pass.
	store bool
	// width is the number of keys (cars, meters, users); length is the
	// event-time length (steps, days, windows) of one timed pass at
	// -seconds 10, the size BENCHMARK.json records.
	width, length int
}

// workloads lists the five workloads in BENCHMARK.json's order. Sizes give
// about half a second per timed pass on two shared cores at the seed commit.
var workloads = []workload{
	{
		name:  "lr-q1-intra",
		why:   "Linear Road Q1 at engine defaults, 1000 cars x 1000 steps a pass: per-tuple stream hand-off, the stateless chain and core instrumentation do the work; no link, no store, tiny state",
		query: harness.Q1, latencyRate: 500000, latencyLength: 750, width: 1000, length: 1000,
	},
	{
		name:  "sg-q4-intra",
		why:   "Smart Grid Q4 at batch 64, 200 meters x 125 days a pass: batching amortises the stream, so keyed aggregate, join, string keys and deep contribution graphs dominate",
		query: harness.Q4, batch: 64, latencyRate: 300000, latencyLength: 180, width: 200, length: 125,
	},
	{
		name:  "cs-q5-inter",
		why:   "Clickstream Q5 over three SPE instances on gob pipes, 800 users x 15 windows a pass: link encode/decode and the SU/MU unfolders dominate, operators do little",
		query: harness.Q5, inter: true, latencyRate: 30000, latencyLength: 8, width: 800, length: 15,
	},
	{
		name:  "cs-q5-paced",
		why:   "Q5 in an open loop at a fixed 200000 tuples/s, 100 users x 125 windows a pass: throughput is pinned, so only latency and CPU per tuple can move",
		query: harness.Q5, rate: 200000, width: 100, length: 125,
	},
	{
		name:  "cs-q5-store",
		why:   "Q5 writing a file-log provenance store beside the query, then opened and queried, 800 users x 80 windows a pass: ingest, index memory, open and lookup cost",
		query: harness.Q5, store: true, latencyRate: 200000, latencyLength: 48, width: 800, length: 80,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// input is one generated input stream: what the engine receives and what a
// correct run must deliver for it.
type input struct {
	gen    ops.SourceFunc
	tuples int
	// sinks is the number of sink tuples a correct run delivers.
	sinks int
	// opts carries the generator configuration in the form the harness's
	// inter-process builders read it.
	opts harness.Options
}

// newInput builds the workload's generator for the given seed and
// event-time length. The engine receives nothing but the generated tuples.
func (w workload) newInput(seed int64, length int) input {
	in := input{opts: harness.Options{Query: w.query, Deployment: harness.Intra, BatchSize: w.batch}}
	if w.inter {
		in.opts.Deployment = harness.Inter
	}
	switch w.query {
	case harness.Q1:
		// A breakdown every step, so a one-second pass delivers enough sink
		// tuples for a latency percentile.
		in.opts.LR = linearroad.Config{Cars: w.width, Steps: length, StopEvery: 1, StopDuration: 6, AccidentEvery: 20, Seed: seed}
		g := linearroad.NewGenerator(in.opts.LR)
		in.gen, in.tuples = g.SourceFunc(), g.Tuples()
	case harness.Q4:
		// One anomaly per day, so a one-second pass still delivers enough
		// sink tuples for a latency percentile.
		in.opts.SG = smartgrid.Config{Meters: w.width, Days: length, BlackoutEvery: 5,
			BlackoutMeters: smartgrid.BlackoutMeterThreshold + 1, AnomalyEvery: 1, AnomalyValue: 300, Seed: seed}
		g := smartgrid.NewGenerator(in.opts.SG)
		in.gen, in.tuples = g.SourceFunc(), g.Tuples()
	case harness.Q5:
		in.opts.CS = clickstream.Config{Users: w.width, Windows: length, HotEvery: 4, Pages: 50, Seed: seed}
		g := clickstream.NewGenerator(in.opts.CS)
		in.gen, in.tuples, in.sinks = g.SourceFunc(), g.Tuples(), g.Alerts()
	}
	return in
}

// addQuery appends the workload's whole query to b.
func (w workload) addQuery(b *query.Builder, src *query.Node) *query.Node {
	switch w.query {
	case harness.Q1:
		return linearroad.AddQ1(b, src)
	case harness.Q4:
		return smartgrid.AddQ4(b, src)
	default:
		return clickstream.AddQ5(b, src)
	}
}

// referenceSinks replays the generator through a naive, single-goroutine
// restatement of the query and returns the sink count a correct engine must
// deliver. Q5's count is the generator's closed form and needs no replay.
func (w workload) referenceSinks(in input) (int, error) {
	switch w.query {
	case harness.Q1:
		return referenceQ1(in.gen, w.width)
	case harness.Q4:
		return referenceQ4(in.gen, w.width)
	default:
		return in.sinks, nil
	}
}

func replay(gen ops.SourceFunc, visit func(core.Tuple)) error {
	return gen(context.Background(), func(t core.Tuple) error { visit(t); return nil })
}

// referenceQ1 counts Q1's alerts: a car raises one for every window of
// StopReports consecutive zero-speed reports at one position.
func referenceQ1(gen ops.SourceFunc, cars int) (int, error) {
	type run struct {
		pos    int32
		lastTs int64
		n      int
	}
	runs := make([]run, cars)
	alerts := 0
	err := replay(gen, func(t core.Tuple) {
		p := t.(*linearroad.PositionReport)
		r := &runs[p.CarID]
		switch {
		case p.Speed != 0:
			r.n = 0
		case r.n > 0 && r.pos == p.Pos && p.Timestamp() == r.lastTs+linearroad.ReportPeriod:
			r.n++
		default:
			r.n = 1
		}
		r.pos, r.lastTs = p.Pos, p.Timestamp()
		if r.n >= linearroad.StopReports {
			alerts++
		}
	})
	return alerts, err
}

// referenceQ4 counts Q4's alerts: a meter raises one when its midnight
// reading differs from the previous day's consumption sum by more than
// AnomalyThreshold.
func referenceQ4(gen ops.SourceFunc, meters int) (int, error) {
	sums := make([]float64, meters)
	alerts := 0
	err := replay(gen, func(t core.Tuple) {
		r := t.(*smartgrid.MeterReading)
		ts := r.Timestamp()
		if ts%smartgrid.HoursPerDay == 0 {
			if ts > 0 && math.Abs(sums[r.MeterID]-r.Cons) > smartgrid.AnomalyThreshold {
				alerts++
			}
			sums[r.MeterID] = 0
		}
		sums[r.MeterID] += r.Cons
	})
	return alerts, err
}

// minLength is the shortest event-time length at which the query delivers a
// sink tuple: Q1 needs StopReports consecutive reports of a car that broke
// down after the first step, Q4 a midnight reading after a whole day.
func (w workload) minLength() int {
	switch w.query {
	case harness.Q1:
		return linearroad.StopReports + 1
	case harness.Q4:
		return 3
	default:
		return 1
	}
}

func (w workload) sizeString(length int) string {
	switch w.query {
	case harness.Q1:
		return fmt.Sprintf("%d cars x %d steps", w.width, length)
	case harness.Q4:
		return fmt.Sprintf("%d meters x %d days", w.width, length)
	default:
		return fmt.Sprintf("%d users x %d windows", w.width, length)
	}
}
