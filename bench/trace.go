package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"genealog/internal/core"
	"genealog/internal/harness"
	"genealog/internal/telemetry"
)

// span is one timed interval of the traced run. Spans are recorded from the
// benchmark's own files, around the calls into each layer; spans inside the
// engine are a later change (README.md).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = no parent
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// SelfNs is the span's duration minus what its children cover.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps the spans of every workload of one invocation in memory
// until it ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// start opens a span under parent and returns its id. A root span (parent
// 0) is named after its workload; every other span inherits its parent's.
func (t *tracer) start(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	workload := name
	if parent != 0 {
		workload = t.spans[parent-1].Workload
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: workload, StartNs: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
}

// finish computes the self time of every span recorded so far. Children of
// one parent that overlap (the scraper runs beside the traced pass) are
// merged first, so an interval is never subtracted twice.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, hi int64
		hi = s.StartNs
		for _, iv := range ivs {
			lo := max(iv[0], hi)
			if iv[1] > lo {
				covered += iv[1] - lo
				hi = iv[1]
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
	return t.spans
}

// planNode is one physical plan node's figures from the traced pass.
type planNode struct {
	Query         string  `json:"query"`
	Name          string  `json:"name"`
	Kind          string  `json:"kind,omitempty"`
	TuplesIn      int64   `json:"tuples_in"`
	TuplesOut     int64   `json:"tuples_out"`
	MeanOccupancy float64 `json:"mean_queue_occupancy"`
	BatchFill     float64 `json:"batch_fill"`
}

// streamLoad is one stream's occupancy over the scrapes.
type streamLoad struct {
	Query         string  `json:"query"`
	Name          string  `json:"name"`
	To            string  `json:"to"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	FullShare     float64 `json:"full_share"`
}

// traceSection is what the scrapes of one workload's traced pass showed.
type traceSection struct {
	Workload string `json:"workload"`
	// RootSpan is the id of the span that covers the workload's traced run.
	RootSpan   int          `json:"root_span"`
	Bottleneck string       `json:"bottleneck"`
	PlanNodes  []planNode   `json:"plan_nodes"`
	Streams    []streamLoad `json:"streams"`
}

// traceFile is what a traced invocation writes to bench/out/trace.json when
// it ends: one section per workload and the spans of all of them, each
// carrying its workload's name.
type traceFile struct {
	Header    header         `json:"header"`
	Seed      int64          `json:"seed"`
	Workloads []traceSection `json:"workloads"`
	Spans     []span         `json:"spans"`
}

// scrapeSummary is what the scrapes of a traced pass add up to.
type scrapeSummary struct {
	nodes      []planNode
	streams    []streamLoad
	bottleneck string
	// fullShare is the share of scrapes in which some stream was at least
	// 90 % full; occupancy and fill are means over streams and nodes.
	fullShare, occupancy, fill float64
	scrapeUs                   []float64
}

const fullThreshold = 0.9

// summarizeScrapes folds the periodic snapshots (occupancy) and the final
// one (counters) into per-node and per-stream figures, and names as the
// bottleneck the consumer of the stream that stayed fullest.
func summarizeScrapes(scrapes []telemetry.Snapshot, final telemetry.Snapshot) scrapeSummary {
	var sum scrapeSummary
	type key struct{ query, name string }
	occ := map[key]float64{}
	full := map[key]float64{}
	opOcc := map[key]float64{}
	anyFull := 0
	for _, snap := range scrapes {
		sawFull := false
		for _, q := range snap.Queries {
			for _, s := range q.Streams {
				if s.QueueCap == 0 {
					continue
				}
				o := float64(s.QueueLen) / float64(s.QueueCap)
				occ[key{q.Name, s.Name}] += o
				if o >= fullThreshold {
					full[key{q.Name, s.Name}]++
					sawFull = true
				}
			}
			for _, op := range q.Operators {
				if op.QueueCap > 0 {
					opOcc[key{q.Name, op.Name}] += float64(op.QueueLen) / float64(op.QueueCap)
				}
			}
		}
		if sawFull {
			anyFull++
		}
	}
	n := float64(max(len(scrapes), 1))
	sum.fullShare = float64(anyFull) / n
	fullest := -1.0
	for _, q := range final.Queries {
		for _, s := range q.Streams {
			k := key{q.Name, s.Name}
			load := streamLoad{Query: q.Name, Name: s.Name, To: s.To, MeanOccupancy: occ[k] / n, FullShare: full[k] / n}
			sum.streams = append(sum.streams, load)
			sum.occupancy += load.MeanOccupancy
			if load.MeanOccupancy > fullest {
				fullest, sum.bottleneck = load.MeanOccupancy, q.Name+"/"+s.To
			}
		}
		for _, op := range q.Operators {
			sum.nodes = append(sum.nodes, planNode{Query: q.Name, Name: op.Name, Kind: op.Kind,
				TuplesIn: op.TuplesIn, TuplesOut: op.TuplesOut,
				MeanOccupancy: opOcc[key{q.Name, op.Name}] / n, BatchFill: op.FillRatio})
			sum.fill += op.FillRatio
		}
	}
	if len(sum.streams) > 0 {
		sum.occupancy /= float64(len(sum.streams))
	}
	if len(sum.nodes) > 0 {
		sum.fill /= float64(len(sum.nodes))
	}
	return sum
}

// tracedPass runs one GL pass of the workload with a telemetry registry
// attached and scraped every scrapePeriod, link bytes counted, and the first
// sink tuples kept so their contribution graphs can be traversed afterwards.
type tracedPass struct {
	res     passResult
	scrapes scrapeSummary
	sinks   []core.Tuple
}

const (
	scrapePeriod = 100 * time.Millisecond
	// keptSinks bounds how many sink tuples (and with them their
	// contribution graphs) the traced pass pins for the traversal probe.
	keptSinks = 2000
)

func runTracedPass(w workload, in input, cfg runConfig, tr *tracer, parent int) tracedPass {
	var out tracedPass
	reg := telemetry.NewRegistry()
	c := w.pass(in, harness.ModeGL, "traced", cfg)
	c.telemetry = reg
	c.countLinks = true
	c.onSink = func(t core.Tuple) {
		if len(out.sinks) < keptSinks {
			out.sinks = append(out.sinks, t)
		}
	}
	id := tr.start("pass:GL+telemetry", parent)
	var scrapes []telemetry.Snapshot
	var scrapeUs []float64
	scrape := func() telemetry.Snapshot {
		sid := tr.start("telemetry.scrape", id)
		begin := time.Now()
		snap := reg.Snapshot()
		scrapeUs = append(scrapeUs, float64(time.Since(begin).Nanoseconds())/1e3)
		tr.end(sid)
		return snap
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(scrapePeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				scrapes = append(scrapes, scrape())
			}
		}
	}()
	out.res = runPass(c)
	close(stop)
	wg.Wait()
	out.scrapes = summarizeScrapes(scrapes, scrape())
	out.scrapes.scrapeUs = scrapeUs
	tr.end(id)
	return out
}

// traceRun is the traced run of one workload: the traced GL pass, the
// engine mini-runs and the per-layer micro-probes, each inside a span of tr.
// It reports every per-layer metric of BENCHMARK.json.
func traceRun(w workload, cfg runConfig, tr *tracer) (runReport, traceSection) {
	length := cfg.timedLength(w)
	rep := runReport{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: true, Size: w.sizeString(length)}
	root := tr.start(w.name, 0)
	defer tr.end(root)
	sec := traceSection{Workload: w.name, RootSpan: root}
	p := &prober{tr: tr, root: root, cfg: cfg, rep: &rep}

	in, err := w.prepare(cfg.seed, length)
	if err != nil {
		rep.record(passResult{err: err})
		return rep, sec
	}
	rep.Tuples, rep.Sinks = in.tuples, in.sinks
	traced := runTracedPass(w, in, cfg, tr, root)
	rep.record(traced.res)
	p.passMetrics(w, in, traced)
	traced.sinks = nil // release the pinned contribution graphs
	sec.Bottleneck, sec.PlanNodes, sec.Streams = traced.scrapes.bottleneck, traced.scrapes.nodes, traced.scrapes.streams

	p.engineProbes()
	p.layerProbes()
	rep.Correct = rep.Failed == 0
	return rep, sec
}

func writeTrace(path string, f traceFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTrace prints a workload's plan nodes and the spans directly under
// its root.
func printTrace(sec traceSection, spans []span) {
	fmt.Printf("\n## %s traced pass: bottleneck %s (consumer of the fullest stream)\n", sec.Workload, sec.Bottleneck)
	fmt.Printf("%-14s %-34s %-12s %12s %12s %10s %8s\n", "query", "plan node", "kind", "tuples_in", "tuples_out", "occupancy", "fill")
	for _, n := range sec.PlanNodes {
		fmt.Printf("%-14s %-34s %-12s %12d %12d %10.3f %8.3f\n", n.Query, n.Name, n.Kind, n.TuplesIn, n.TuplesOut, n.MeanOccupancy, n.BatchFill)
	}
	fmt.Printf("%-44s %14s %14s\n", "span (the run and its direct children)", "total_ms", "self_ms")
	for _, s := range spans {
		if s.ID == sec.RootSpan || s.Parent == sec.RootSpan {
			fmt.Printf("%-44s %14.3f %14.3f\n", s.Name, float64(s.EndNs-s.StartNs)/1e6, float64(s.SelfNs)/1e6)
		}
	}
}
