package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"genealog/internal/baseline"
	"genealog/internal/core"
	"genealog/internal/metrics"
	"genealog/internal/ops"
	"genealog/internal/provenance"
	"genealog/internal/query"
	"genealog/internal/telemetry"
	"genealog/internal/transport"
)

// InterLinks names the directed streams of the paper's three-instance
// deployments (Figs. 7, 9C, 10C, 11C). Each field carries the encoder/
// decoder pair of one link; an instance only uses its own half, so the same
// struct describes in-memory pipes (harness runs) and TCP connections
// (cmd/spe-node).
type InterLinks struct {
	// Main carries the query's delivering streams from SPE instance 1 to
	// instance 2 (one per stage-1 output; Q4 has two).
	Main []*transport.Link
	// U1 carries instance 1's unfolded streams to the provenance node
	// (GL only; one per stage-1 output).
	U1 []*transport.Link
	// Derived carries instance 2's unfolded sink stream to the provenance
	// node (GL only).
	Derived *transport.Link
	// Sources carries the whole source stream to the provenance node
	// (BL only).
	Sources *transport.Link
	// Sinks carries the annotated sink tuples to the provenance node
	// (BL only).
	Sinks *transport.Link
}

// InterHooks receives the measurements of a distributed instance. All hooks
// are optional.
type InterHooks struct {
	// OnSourceEmit observes every source tuple (throughput accounting).
	OnSourceEmit func(core.Tuple)
	// OnSinkTuple observes every sink tuple.
	OnSinkTuple func(core.Tuple)
	// OnLatency observes each sink tuple's latency in nanoseconds.
	OnLatency func(ns int64)
	// OnTraversal1 and OnTraversal2 observe the contribution-graph
	// traversal durations at SPE instances 1 and 2 (Fig. 14).
	OnTraversal1 func(d time.Duration)
	OnTraversal2 func(d time.Duration)
	// OnProvenance observes every assembled provenance result at the
	// provenance node.
	OnProvenance func(provenance.Result)
	// OnResolve observes the duration of each BL store join at the
	// provenance node (BL's counterpart of the traversal measurement).
	OnResolve func(d time.Duration)
	// Store is the BL provenance node's source store (required for BL SPE 3).
	Store *baseline.Store
	// ProvStore, when non-nil, durably persists the provenance node's
	// assembled results: under GL the SPE 3 collector tees into it (the MU's
	// unfolded Record stream is the ingestion path), under BL the buffered
	// resolver's results are ingested via OnProvenance by the caller.
	ProvStore query.ProvenanceStore
}

// MainLinkCount returns how many delivering streams stage 1 of q ships to
// stage 2 (Q4 ships two: the daily sums and the midnight readings).
func MainLinkCount(q QueryID) (int, error) {
	switch q {
	case Q1, Q2, Q3, Q5:
		return 1, nil
	case Q4:
		return 2, nil
	default:
		return 0, fmt.Errorf("harness: unknown query %q", q)
	}
}

// BuildSPE1 assembles SPE instance 1: the Source, the query's first stage
// and — under GL — one SU per delivering stream, shipping both the stream
// and its unfolding. Under BL the whole source stream is additionally
// shipped to the provenance node.
func BuildSPE1(o Options, links InterLinks, hooks InterHooks) (*query.Query, error) {
	spec, err := specFor(o.Query)
	if err != nil {
		return nil, err
	}
	spec.registerWire()
	provenance.RegisterWire()
	gen, _, _ := spec.source(o)

	opts := append([]query.Option{query.WithInstrumenter(instrumenterFor(o.Mode, 1, nil))},
		commonQueryOptions(o)...)
	b := query.New(string(o.Query)+"-spe1", opts...)
	src := b.AddSource("source", gen)
	src.Rate = o.SourceRate
	src.Burst = o.SourceBurst
	src.OnEmit = hooks.OnSourceEmit

	stage1From := src
	if o.Mode == ModeBL {
		if links.Sources == nil {
			return nil, errors.New("harness: BL SPE1 needs a Sources link")
		}
		mux := b.AddMultiplex("ship-mux")
		b.Connect(src, mux)
		transport.AddSend(b, "send-sources", mux, links.Sources.Enc, links.Sources.Closer)
		stage1From = mux
	}
	outs1 := spec.addStage1(b, stage1From)
	if len(outs1) != len(links.Main) {
		return nil, fmt.Errorf("harness: %s stage 1 has %d outputs, got %d main links",
			o.Query, len(outs1), len(links.Main))
	}
	for i, out := range outs1 {
		switch o.Mode {
		case ModeGL:
			if i >= len(links.U1) {
				return nil, errors.New("harness: GL SPE1 needs one U1 link per main link")
			}
			so, u := provenance.AddSU(b, fmt.Sprintf("su1-%d", i), out, provenance.SUConfig{
				OnTraversal: func(d time.Duration, _ int) {
					if hooks.OnTraversal1 != nil {
						hooks.OnTraversal1(d)
					}
				},
			})
			transport.AddSend(b, fmt.Sprintf("send-main-%d", i), so, links.Main[i].Enc, links.Main[i].Closer)
			transport.AddSend(b, fmt.Sprintf("send-u1-%d", i), u, links.U1[i].Enc, links.U1[i].Closer)
		default: // NP, BL
			transport.AddSend(b, fmt.Sprintf("send-main-%d", i), out, links.Main[i].Enc, links.Main[i].Closer)
		}
	}
	b.ParallelizeStateful(o.Parallelism)
	return b.Build()
}

// BuildSPE2 assembles SPE instance 2: the query's second stage and the Sink,
// plus — under GL — the SU unfolding the sink stream into the derived
// stream, or — under BL — the shipping of annotated sink tuples.
func BuildSPE2(o Options, links InterLinks, hooks InterHooks) (*query.Query, error) {
	spec, err := specFor(o.Query)
	if err != nil {
		return nil, err
	}
	spec.registerWire()
	provenance.RegisterWire()

	opts := append([]query.Option{query.WithInstrumenter(instrumenterFor(o.Mode, 2, nil))},
		commonQueryOptions(o)...)
	b := query.New(string(o.Query)+"-spe2", opts...)
	ins := make([]*query.Node, len(links.Main))
	for i, l := range links.Main {
		ins[i] = transport.AddReceive(b, fmt.Sprintf("recv-main-%d", i), l.Dec)
	}
	last := spec.addStage2(b, ins)

	sinkFn := func(t core.Tuple) error {
		if hooks.OnSinkTuple != nil {
			hooks.OnSinkTuple(t)
		}
		return nil
	}
	newSink := func() *query.Node {
		sink := b.AddSink("sink", sinkFn)
		if hooks.OnLatency != nil {
			sink.OnLatency = func(_ core.Tuple, ns int64) { hooks.OnLatency(ns) }
		}
		return sink
	}
	switch o.Mode {
	case ModeGL:
		if links.Derived == nil {
			return nil, errors.New("harness: GL SPE2 needs a Derived link")
		}
		so, u := provenance.AddSU(b, "su2", last, provenance.SUConfig{
			OnTraversal: func(d time.Duration, _ int) {
				if hooks.OnTraversal2 != nil {
					hooks.OnTraversal2(d)
				}
			},
		})
		b.Connect(so, newSink())
		transport.AddSend(b, "send-derived", u, links.Derived.Enc, links.Derived.Closer)
	case ModeBL:
		if links.Sinks == nil {
			return nil, errors.New("harness: BL SPE2 needs a Sinks link")
		}
		mux := b.AddMultiplex("sink-mux")
		b.Connect(last, mux)
		b.Connect(mux, newSink())
		transport.AddSend(b, "send-sinks", mux, links.Sinks.Enc, links.Sinks.Closer)
	default: // NP
		b.Connect(last, newSink())
	}
	b.ParallelizeStateful(o.Parallelism)
	return b.Build()
}

// BuildSPE3 assembles the provenance node. Under GL it hosts the MU (fed by
// the upstream unfolded streams and the derived stream) and the provenance
// collector; under BL it ingests the shipped source streams and joins them
// with the annotated sink tuples. NP has no provenance node (nil, nil).
func BuildSPE3(o Options, links InterLinks, hooks InterHooks) (*query.Query, error) {
	spec, err := specFor(o.Query)
	if err != nil {
		return nil, err
	}
	spec.registerWire()
	provenance.RegisterWire()

	onResult := hooks.OnProvenance
	if onResult == nil {
		onResult = func(provenance.Result) {}
	}
	switch o.Mode {
	case ModeGL:
		opts := append([]query.Option{query.WithInstrumenter(instrumenterFor(o.Mode, 3, nil))},
			commonQueryOptions(o)...)
		if hooks.ProvStore != nil {
			opts = append(opts, query.WithProvenanceStore(hooks.ProvStore))
		}
		b := query.New(string(o.Query)+"-spe3", opts...)
		ups := make([]*query.Node, len(links.U1))
		for i, l := range links.U1 {
			ups[i] = transport.AddReceive(b, fmt.Sprintf("recv-u1-%d", i), l.Dec)
		}
		if links.Derived == nil {
			return nil, errors.New("harness: GL SPE3 needs a Derived link")
		}
		derived := transport.AddReceive(b, "recv-derived", links.Derived.Dec)
		mu := provenance.AddMU(b, "mu", derived, ups, provenance.MUConfig{Window: spec.muWindow})
		provenance.AddCollectorHorizon(b, "prov-sink", mu, 2*spec.muWindow, onResult)
		return b.Build()
	case ModeBL:
		if hooks.Store == nil || links.Sources == nil || links.Sinks == nil {
			return nil, errors.New("harness: BL SPE3 needs a Store and Sources/Sinks links")
		}
		blOpts := append([]query.Option{query.WithInstrumenter(core.Noop{})},
			commonQueryOptions(o)...)
		b := query.New(string(o.Query)+"-spe3", blOpts...)
		srcsIn := transport.AddReceive(b, "recv-sources", links.Sources.Dec)
		storeDone := make(chan struct{})
		addStoreIngest(b, "store-sink", srcsIn, hooks.Store, storeDone)
		sinksIn := transport.AddReceive(b, "recv-sinks", links.Sinks.Dec)
		// BL has no collector to tee through query.WithProvenanceStore;
		// persist each resolved result before observers see it. An ingest
		// failure fails the resolver operator like any other error.
		onResolved := func(r provenance.Result) error {
			if hooks.ProvStore != nil {
				if _, err := hooks.ProvStore.Ingest(r.Sink, r.Sources); err != nil {
					return err
				}
			}
			onResult(r)
			return nil
		}
		addBufferedResolver(b, "resolver", sinksIn, hooks.Store, storeDone, hooks.OnResolve, onResolved)
		return b.Build()
	default:
		return nil, nil
	}
}

// runInter deploys the query across SPE instances connected by in-memory
// serialising links, following the paper's Figs. 7, 9C, 10C and 11C: NP uses
// two instances, GL and BL add the provenance node.
func runInter(ctx context.Context, o Options, spec querySpec) (Result, error) {
	res := Result{Query: o.Query, Mode: o.Mode, Deployment: Inter, Parallelism: o.Parallelism,
		BatchSize: o.BatchSize, Fusion: !o.NoFusion, Vectorized: !o.NoVectorize,
		RemoteStore: o.RemoteStore}
	if o.AdaptiveBatch {
		res.AdaptiveBatch = true
		res.AdaptiveMinBatch, res.AdaptiveMaxBatch = adaptiveBounds(o)
	}
	_, total, perTuple := spec.source(o)
	res.SourceTuples = int64(total)
	res.SourceBytes = int64(total) * int64(perTuple)

	linkOpts := []transport.LinkOption{transport.WithCounting()}
	if o.ThrottleBytesPerSec > 0 {
		linkOpts = append(linkOpts, transport.WithThrottle(o.ThrottleBytesPerSec))
	}
	if o.UseGobCodec {
		linkOpts = append(linkOpts, transport.WithCodec(transport.GobCodec{}))
	}
	var all []*transport.Link
	newLink := func(name string) *transport.Link {
		l := transport.NewLink(append(linkOpts, transport.WithName(name))...)
		all = append(all, l)
		return l
	}

	nMain, err := MainLinkCount(o.Query)
	if err != nil {
		return Result{}, err
	}
	links := InterLinks{}
	for i := 0; i < nMain; i++ {
		links.Main = append(links.Main, newLink(fmt.Sprintf("main-%d", i)))
	}
	switch o.Mode {
	case ModeGL:
		for i := 0; i < nMain; i++ {
			links.U1 = append(links.U1, newLink(fmt.Sprintf("u1-%d", i)))
		}
		links.Derived = newLink("derived")
	case ModeBL:
		links.Sources = newLink("sources")
		links.Sinks = newLink("sinks")
	}
	if o.Telemetry != nil {
		for _, l := range all {
			count := l.Count
			o.Telemetry.RegisterGauge("genealog_link_bytes",
				[]telemetry.Label{{Name: "link", Value: l.Name}},
				func() float64 { return float64(count.Bytes()) })
		}
	}

	var store *baseline.Store
	if o.Mode == ModeBL {
		store = baseline.NewStore()
	}
	provStore, ownStore, err := o.openProvStore(ctx, spec)
	if err != nil {
		return Result{}, err
	}
	if ownStore {
		// Flush and release the file log on every error path too;
		// finishProvStore closes first on success (re-Close is a no-op).
		defer provStore.Close()
	}
	if o.Telemetry != nil && provStore != nil {
		o.Telemetry.RegisterStore("provstore", func() telemetry.StoreStats {
			return storeStats(provStore.Stats())
		})
	}
	account := &provAccount{spec: spec}
	observe := func(r provenance.Result) {
		account.add(r)
		if o.OnProvenance != nil {
			o.OnProvenance(r)
		}
	}
	var lat metrics.Welford
	latQ := metrics.NewReservoir(0)
	trav := []*metrics.Welford{{}, {}}
	var srcCount metrics.Counter
	var sinkMu sync.Mutex
	hooks := InterHooks{
		OnSourceEmit: func(core.Tuple) { srcCount.Mark(time.Now().UnixNano()) },
		OnSinkTuple: func(core.Tuple) {
			sinkMu.Lock()
			res.SinkTuples++
			sinkMu.Unlock()
		},
		OnLatency: func(ns int64) {
			lat.Add(float64(ns))
			latQ.Add(float64(ns))
		},
		OnTraversal1: func(d time.Duration) { trav[0].Add(float64(d.Nanoseconds())) },
		OnTraversal2: func(d time.Duration) { trav[1].Add(float64(d.Nanoseconds())) },
		OnProvenance: observe,
		// BL times its store join instead of a graph traversal.
		OnResolve: func(d time.Duration) { trav[0].Add(float64(d.Nanoseconds())) },
		Store:     store,
	}
	if provStore != nil {
		hooks.ProvStore = provStore
	}

	var queries []*query.Query
	q1, err := BuildSPE1(o, links, hooks)
	if err != nil {
		return Result{}, err
	}
	queries = append(queries, q1)
	q2, err := BuildSPE2(o, links, hooks)
	if err != nil {
		return Result{}, err
	}
	queries = append(queries, q2)
	q3, err := BuildSPE3(o, links, hooks)
	if err != nil {
		return Result{}, err
	}
	if q3 != nil {
		queries = append(queries, q3)
	}

	mem := metrics.NewMemSampler(o.MemSampleEvery)
	mem.Start()
	begin := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, len(queries))
	for _, q := range queries {
		wg.Add(1)
		go func(q *query.Query) {
			defer wg.Done()
			errc <- q.Run(ctx)
		}(q)
	}
	wg.Wait()
	close(errc)
	res.Elapsed = time.Since(begin)
	mem.Stop()
	var errs []error
	for err := range errc {
		if err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return Result{}, errors.Join(errs...)
	}

	res.ThroughputTPS = srcCount.Rate()
	res.AvgLatencyMs = lat.Mean() / 1e6
	latPcts := latQ.Quantiles(0.5, 0.99)
	res.P50LatencyMs = latPcts[0] / 1e6
	res.P99LatencyMs = latPcts[1] / 1e6
	res.AvgMemMB = mem.AvgBytes() / (1 << 20)
	res.MaxMemMB = mem.MaxBytes() / (1 << 20)
	switch o.Mode {
	case ModeGL:
		res.TraversalAvgMsPerSPE = []float64{trav[0].Mean() / 1e6, trav[1].Mean() / 1e6}
		res.TraversalAvgMs = res.TraversalAvgMsPerSPE[0]
	case ModeBL:
		res.TraversalAvgMs = trav[0].Mean() / 1e6
	}
	res.ProvResults = account.results
	res.ProvSources = account.sources
	res.ProvBytes = account.bytes
	for _, l := range all {
		res.NetBytes += l.Count.Bytes()
	}
	if store != nil {
		res.StoreBytes = store.ApproxBytes()
		res.StoreTuples = int64(store.Len())
	}
	if err := finishProvStore(provStore, ownStore, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// addStoreIngest adds the provenance node's ingestion of the shipped source
// streams (the paper's BL keeps all source data at the node doing the
// provenance join). done is closed once the stream has fully drained.
func addStoreIngest(b *query.Builder, name string, from *query.Node,
	store *baseline.Store, done chan<- struct{}) {
	node := b.AddCustom(name, 1, 0, func(ins, outs []*ops.Stream) (ops.Operator, error) {
		return &storeIngest{name: name, in: ins[0], store: store, done: done}, nil
	})
	b.Connect(from, node)
}

type storeIngest struct {
	name  string
	in    *ops.Stream
	store *baseline.Store
	done  chan<- struct{}
}

var _ ops.Operator = (*storeIngest)(nil)

// Name implements ops.Operator.
func (s *storeIngest) Name() string { return s.name }

// Run implements ops.Operator.
func (s *storeIngest) Run(ctx context.Context) error {
	defer close(s.done)
	for {
		t, ok, err := s.in.Recv(ctx)
		if err != nil {
			return fmt.Errorf("store ingest %q: %w", s.name, err)
		}
		if !ok {
			return nil
		}
		if m := core.MetaOf(t); m != nil && m.ID() != 0 {
			s.store.Put(m.ID(), t)
		}
	}
}

// addBufferedResolver adds BL's provenance-node resolution: annotated sink
// tuples are buffered until both their own stream and the shipped source
// streams have drained (storeDone), and are then joined with the store.
// onResolve, when non-nil, observes each resolution's duration. An onResult
// error fails the operator.
func addBufferedResolver(b *query.Builder, name string, from *query.Node,
	store *baseline.Store, storeDone <-chan struct{}, onResolve func(time.Duration),
	onResult func(provenance.Result) error) {
	node := b.AddCustom(name, 1, 0, func(ins, outs []*ops.Stream) (ops.Operator, error) {
		return &bufferedResolver{
			name: name, in: ins[0], store: store, storeDone: storeDone,
			onResolve: onResolve, onResult: onResult,
		}, nil
	})
	b.Connect(from, node)
}

type bufferedResolver struct {
	name      string
	in        *ops.Stream
	store     *baseline.Store
	storeDone <-chan struct{}
	onResolve func(time.Duration)
	onResult  func(provenance.Result) error
	buf       []core.Tuple
}

var _ ops.Operator = (*bufferedResolver)(nil)

// Name implements ops.Operator.
func (r *bufferedResolver) Name() string { return r.name }

// Run implements ops.Operator.
func (r *bufferedResolver) Run(ctx context.Context) error {
	for {
		t, ok, err := r.in.Recv(ctx)
		if err != nil {
			return fmt.Errorf("resolver %q: %w", r.name, err)
		}
		if ok && core.IsHeartbeat(t) {
			continue
		}
		if !ok {
			select {
			case <-r.storeDone:
			case <-ctx.Done():
				return fmt.Errorf("resolver %q: %w", r.name, ctx.Err())
			}
			resolver := baseline.Resolver{Store: r.store}
			for _, sink := range r.buf {
				begin := time.Now()
				sources := resolver.Resolve(sink)
				if r.onResolve != nil {
					r.onResolve(time.Since(begin))
				}
				if err := r.onResult(provenance.Result{Sink: sink, Sources: sources}); err != nil {
					return fmt.Errorf("resolver %q: %w", r.name, err)
				}
			}
			r.buf = nil
			return nil
		}
		r.buf = append(r.buf, t)
	}
}
