package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"genealog/internal/core"
	"genealog/internal/harness"
	"genealog/internal/provenance"
	"genealog/internal/provstore"
	"genealog/internal/query"
	"genealog/internal/telemetry"
	"genealog/internal/transport"
)

// passConfig is one execution of a workload's query.
type passConfig struct {
	w     workload
	in    input
	mode  harness.Mode
	label string
	// rate paces the source in tuples/s (0 = unpaced); it starts as the
	// workload's own rate.
	rate float64
	// storePath, when non-empty, persists assembled provenance to a file
	// log there (GL only), removed after the pass unless keepStore is set.
	storePath string
	keepStore bool
	// Observation: every field below is off in timed passes.

	// onEmit observes every source tuple, onSink every sink tuple and
	// onProvenance every assembled provenance result.
	onEmit       func(core.Tuple)
	onSink       func(core.Tuple)
	onProvenance func(provenance.Result)
	// telemetry attaches a registry; countLinks counts link bytes.
	telemetry  *telemetry.Registry
	countLinks bool
	// Engine knobs a per-layer probe varies; zero values are the defaults.
	parallelism int
	adaptive    bool
	// deadline bounds the pass; exceeding it fails the pass.
	deadline time.Duration
}

// passResult is what one pass measured.
type passResult struct {
	// begin is when the pass started building; build is how long building
	// took and elapsed how long the built deployment ran.
	begin       time.Time
	build       time.Duration
	elapsed     time.Duration
	cpuNs       int64
	allocBytes  uint64
	sinks       int64
	provResults int64
	provSources int64
	latenciesNs []int64
	netBytes    int64
	planNodes   int
	err         error
}

func (r passResult) tuplesPerSec(tuples int) float64 {
	return float64(tuples) / r.elapsed.Seconds()
}

// deployment is the built query (or queries) of one pass, ready to run.
type deployment struct {
	queries []*query.Query
	links   []*transport.Link
	store   *provstore.Store
}

// storeHorizon returns the retention horizon the harness derives for q.
func storeHorizon(q harness.QueryID) int64 {
	h, err := harness.StoreHorizon(q)
	if err != nil {
		panic(err) // the workload table only names known queries
	}
	return h
}

func instrumenter(mode harness.Mode) core.Instrumenter {
	if mode == harness.ModeGL {
		return &core.Genealog{}
	}
	return core.Noop{}
}

// build assembles the pass's deployment the way the harness does for a
// measured run, but with only the observation points the pass asks for.
func (c *passConfig) build(res *passResult) (*deployment, error) {
	d := &deployment{}
	if c.storePath != "" && c.mode == harness.ModeGL {
		st, err := provstore.Create(c.storePath, provstore.Options{Horizon: storeHorizon(c.w.query)})
		if err != nil {
			return nil, err
		}
		d.store = st
	}
	// The harness's hook set serves both deployments: the inter-process
	// builders take it as is, the intra-process assembly reads the same fields.
	hooks := harness.InterHooks{
		OnSourceEmit: c.onEmit,
		OnSinkTuple: func(t core.Tuple) {
			res.sinks++
			if c.onSink != nil {
				c.onSink(t)
			}
		},
		OnLatency: func(ns int64) { res.latenciesNs = append(res.latenciesNs, ns) },
		OnProvenance: func(r provenance.Result) {
			res.provResults++
			res.provSources += int64(len(r.Sources))
			if c.onProvenance != nil {
				c.onProvenance(r)
			}
		},
	}
	if d.store != nil {
		hooks.ProvStore = d.store
	}
	var err error
	if c.w.inter {
		err = c.buildInter(d, hooks)
	} else {
		err = c.buildIntra(d, hooks)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	for _, q := range d.queries {
		res.planNodes += len(q.Operators())
	}
	return d, nil
}

func (c *passConfig) queryOptions() []query.Option {
	opts := []query.Option{query.WithBatchSize(c.w.batch)}
	if c.adaptive {
		opts = append(opts, query.WithAdaptiveBatching(1, harness.DefaultAdaptiveMaxBatch))
	}
	if c.telemetry != nil {
		opts = append(opts, query.WithTelemetry(c.telemetry))
	}
	return opts
}

func (c *passConfig) buildIntra(d *deployment, hooks harness.InterHooks) error {
	opts := append(c.queryOptions(), query.WithInstrumenter(instrumenter(c.mode)))
	if hooks.ProvStore != nil {
		opts = append(opts, query.WithProvenanceStore(hooks.ProvStore))
	}
	b := query.New(c.w.name, opts...)
	src := b.AddSource("source", c.in.gen)
	src.Rate = c.rate
	src.OnEmit = hooks.OnSourceEmit
	last := c.w.addQuery(b, src)
	if c.mode == harness.ModeGL {
		so, u := provenance.AddSU(b, "su", last, provenance.SUConfig{})
		last = so
		provenance.AddCollector(b, "prov-sink", u, hooks.OnProvenance)
	}
	sink := b.AddSink("sink", func(t core.Tuple) error { hooks.OnSinkTuple(t); return nil })
	sink.OnLatency = func(_ core.Tuple, ns int64) { hooks.OnLatency(ns) }
	b.Connect(last, sink)
	b.ParallelizeStateful(c.parallelism)
	q, err := b.Build()
	if err != nil {
		return err
	}
	d.queries = []*query.Query{q}
	return nil
}

func (c *passConfig) buildInter(d *deployment, hooks harness.InterHooks) error {
	o := c.in.opts
	o.Mode = c.mode
	o.SourceRate = c.rate
	o.AdaptiveBatch = c.adaptive
	o.Parallelism = c.parallelism
	o.Telemetry = c.telemetry
	var linkOpts []transport.LinkOption
	if c.countLinks {
		linkOpts = append(linkOpts, transport.WithCounting())
	}
	newLink := func() *transport.Link {
		l := transport.NewLink(linkOpts...)
		d.links = append(d.links, l)
		return l
	}
	nMain, err := harness.MainLinkCount(o.Query)
	if err != nil {
		return err
	}
	var links harness.InterLinks
	for i := 0; i < nMain; i++ {
		links.Main = append(links.Main, newLink())
	}
	if c.mode == harness.ModeGL {
		for i := 0; i < nMain; i++ {
			links.U1 = append(links.U1, newLink())
		}
		links.Derived = newLink()
	}
	for _, build := range []func(harness.Options, harness.InterLinks, harness.InterHooks) (*query.Query, error){
		harness.BuildSPE1, harness.BuildSPE2, harness.BuildSPE3,
	} {
		q, err := build(o, links, hooks)
		if err != nil {
			return err
		}
		if q != nil { // NP has no provenance node
			d.queries = append(d.queries, q)
		}
	}
	return nil
}

// close releases what a deployment holds; closing the links also unblocks
// operators stuck on a pipe, which do not watch the context.
func (d *deployment) close() error {
	for _, l := range d.links {
		l.Closer.Close()
	}
	if d.store != nil {
		return d.store.Close()
	}
	return nil
}

func (d *deployment) netBytes() int64 {
	var n int64
	for _, l := range d.links {
		if l.Count != nil {
			n += l.Count.Bytes()
		}
	}
	return n
}

// runner is anything with the engine's Run method: a query, an operator.
type runner interface {
	Run(context.Context) error
}

// start runs every runner on its own goroutine and returns a function that
// waits for all of them and joins their errors.
func start[R runner](ctx context.Context, rs []R) (wait func() error) {
	errs := make([]error, len(rs))
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.Run(ctx)
		}()
	}
	return func() error {
		wg.Wait()
		return errors.Join(errs...)
	}
}

// run executes every query of the deployment and waits for all of them.
func (d *deployment) run(ctx context.Context) error {
	wait := start(ctx, d.queries)
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		// Pipes do not watch the context: close them so blocked Send and
		// Receive operators return, then wait.
		for _, l := range d.links {
			l.Closer.Close()
		}
		return <-done
	}
}

func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapCounter reads one of the runtime's cumulative heap counters.
func heapCounter(name string) uint64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func heapAllocatedBytes() uint64   { return heapCounter("/gc/heap/allocs:bytes") }
func heapAllocatedObjects() uint64 { return heapCounter("/gc/heap/allocs:objects") }

// liveHeap forces a collection and returns the bytes that survive it.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSampler measures the live heap at fixed positions in the source
// stream: every `every` tuples the source stops, the operators drain what is
// in flight, and a forced collection leaves exactly what the engine still
// holds — window state, contribution graphs, store index. Sampling a running
// engine instead counts everything allocated while the collector ran as
// live, and sampled HeapAlloc between collections measures garbage
// (README.md, hazards).
type heapSampler struct {
	every, seen int
	liveBytes   []float64
}

// quiesce is how long a stopped source waits for the operators to drain.
const quiesce = 50 * time.Millisecond

func (h *heapSampler) onEmit(core.Tuple) {
	h.seen++
	if h.seen%h.every != 0 {
		return
	}
	time.Sleep(quiesce)
	h.liveBytes = append(h.liveBytes, float64(liveHeap()))
}

// runPass builds and runs one pass. An error, a deadline overrun or a wrong
// sink count fails the pass instead of ending the benchmark.
func runPass(c passConfig) (res passResult) {
	defer func() {
		if p := recover(); p != nil {
			res.err = fmt.Errorf("%s: panic: %v", c.label, p)
		}
	}()
	res.latenciesNs = make([]int64, 0, c.in.sinks)
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), c.deadline)
	defer cancel()

	cpu0, alloc0 := processCPU(), heapAllocatedBytes()
	res.begin = time.Now()
	d, err := c.build(&res)
	if err != nil {
		res.err = fmt.Errorf("%s: build: %w", c.label, err)
		return res
	}
	res.build = time.Since(res.begin)
	runBegin := time.Now()
	runErr := d.run(ctx)
	closeErr := d.close()
	res.elapsed = time.Since(runBegin)
	res.cpuNs = processCPU() - cpu0
	res.allocBytes = heapAllocatedBytes() - alloc0
	res.netBytes = d.netBytes()
	if d.store != nil && !c.keepStore {
		os.Remove(c.storePath)
	}
	switch {
	case runErr != nil:
		res.err = fmt.Errorf("%s: %w", c.label, runErr)
	case closeErr != nil:
		res.err = fmt.Errorf("%s: close store: %w", c.label, closeErr)
	case res.sinks != int64(c.in.sinks):
		res.err = fmt.Errorf("%s: %d sink tuples, want %d", c.label, res.sinks, c.in.sinks)
	case c.mode == harness.ModeGL && res.provResults != res.sinks:
		res.err = fmt.Errorf("%s: %d provenance results for %d sink tuples", c.label, res.provResults, res.sinks)
	}
	return res
}

func storeFile(dir, label string) string { return filepath.Join(dir, label+".provlog") }
