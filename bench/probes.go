package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"genealog/internal/clickstream"
	"genealog/internal/core"
	"genealog/internal/harness"
	"genealog/internal/ops"
	"genealog/internal/provenance"
	"genealog/internal/provstore"
	"genealog/internal/query"
	"genealog/internal/smartgrid"
	"genealog/internal/telemetry"
	"genealog/internal/transport"
)

// prober runs the per-layer probes of a traced run. Every probe sits in its
// own span under the run's root and counts as one attempt. A failed probe's
// metrics are missing from the report, and the run then exits non-zero
// instead of printing a result.
type prober struct {
	tr   *tracer
	root int
	cfg  runConfig
	rep  *runReport
}

// probe runs fn inside a span; an error or a panic fails the attempt.
func (p *prober) probe(name string, fn func() error) {
	id := p.tr.start(name, p.root)
	defer p.tr.end(id)
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return fn()
	}()
	if err != nil {
		err = fmt.Errorf("probe %s: %w", name, err)
	}
	p.rep.record(passResult{err: err})
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// passMetrics reports what the traced pass itself measured.
func (p *prober) passMetrics(w workload, in input, t tracedPass) {
	r, s := t.res, t.scrapes
	tuples := float64(in.tuples)
	p.rep.add("trace.gl_throughput_tps", "1/s", r.tuplesPerSec(in.tuples))
	p.rep.add("ops.stream.full_share", "ratio", s.fullShare)
	p.rep.add("ops.stream.mean_occupancy", "ratio", s.occupancy)
	p.rep.add("ops.stream.batch_fill", "ratio", s.fill)
	p.rep.add("telemetry.scrape_us", "us", s.scrapeUs...)
	p.rep.add("query.build_us", "us", float64(r.build.Nanoseconds())/1e3)
	p.rep.add("query.plan_nodes", "count", float64(r.planNodes))
	p.rep.add("provenance.unfolded_tuples_per_sink", "count", float64(r.provSources)/float64(max(r.provResults, 1)))
	p.rep.add("transport.net_bytes_per_tuple_gl", "B", float64(r.netBytes)/tuples)

	npBytes := 0.0
	if w.inter {
		p.probe("pass:NP+link-count", func() error {
			c := w.pass(in, harness.ModeNP, "traced-np", p.cfg)
			c.countLinks = true
			res := runPass(c)
			npBytes = float64(res.netBytes) / tuples
			return res.err
		})
	}
	p.rep.add("transport.net_bytes_per_tuple_np", "B", npBytes)

	// Fig. 14: traverse the contribution graphs of the sink tuples the
	// traced pass delivered.
	p.probe("core.FindProvenance", func() error {
		if len(t.sinks) == 0 {
			return fmt.Errorf("traced pass kept no sink tuple")
		}
		const rounds = 5
		var sources int
		begin := time.Now()
		for i := 0; i < rounds; i++ {
			sources = 0
			for _, sink := range t.sinks {
				sources += len(core.FindProvenance(sink))
			}
		}
		d := time.Since(begin)
		p.rep.add("core.traverse_us_per_sink", "us", nsPer(d, rounds*len(t.sinks))/1e3)
		p.rep.add("core.traverse_ns_per_source", "ns", nsPer(d, rounds*max(sources, 1)))
		return nil
	})
}

// mini returns a GL pass of the named workload at a reduced event-time
// length: the engine runs that compare one knob on and off.
func (p *prober) mini(name string, length int, label string) (passConfig, error) {
	w, _ := workloadByName(name)
	in, err := w.prepare(p.cfg.seed, p.cfg.length(w, length))
	if err != nil {
		return passConfig{}, err
	}
	return w.pass(in, harness.ModeGL, label, p.cfg), nil
}

// engineProbes compares whole-engine runs that differ in one knob. Ratios
// are medians of per-pair ratios; a pair runs back to back.
func (p *prober) engineProbes() {
	reps := p.cfg.size(3)
	// lr-q1-intra GL: telemetry attached, adaptive batching on, and NP for
	// the metadata bytes, each against the same plain GL run.
	p.probe("engine:lr-q1-intra knobs", func() error {
		var telem, adaptive, meta []float64
		for i := 0; i < reps; i++ {
			base, err := p.mini("lr-q1-intra", 400, "knob-base")
			if err != nil {
				return err
			}
			tuples := base.in.tuples
			plain := runPass(base)
			withTelem := base
			withTelem.telemetry = telemetry.NewRegistry()
			tl := runPass(withTelem)
			withAdapt := base
			withAdapt.adaptive = true
			ad := runPass(withAdapt)
			npc := base
			npc.mode = harness.ModeNP
			np := runPass(npc)
			if err := errors.Join(plain.err, tl.err, ad.err, np.err); err != nil {
				return err
			}
			telem = append(telem, tl.tuplesPerSec(tuples)/plain.tuplesPerSec(tuples))
			adaptive = append(adaptive, ad.tuplesPerSec(tuples)/plain.tuplesPerSec(tuples))
			meta = append(meta, (float64(plain.allocBytes)-float64(np.allocBytes))/float64(tuples))
		}
		p.rep.add("telemetry.enabled_throughput_ratio", "ratio", telem...)
		p.rep.add("adapt.throughput_ratio", "ratio", adaptive...)
		p.rep.add("core.meta_bytes_per_tuple", "B", meta...)
		return nil
	})

	// cs-q5-paced: p99 latency with the controller on over off, and how
	// late the open-loop generator ran against its schedule.
	p.probe("engine:cs-q5-paced adaptive+lag", func() error {
		var ratio, lag []float64
		for i := 0; i < reps; i++ {
			off, err := p.mini("cs-q5-paced", 125, "adapt-off")
			if err != nil {
				return err
			}
			var emitted []int64
			off.onEmit = func(core.Tuple) { emitted = append(emitted, time.Now().UnixNano()) }
			on := off
			on.onEmit = nil
			on.adaptive = true
			offRes, onRes := runPass(off), runPass(on)
			if err := errors.Join(offRes.err, onRes.err); err != nil {
				return err
			}
			ratio = append(ratio, quantile(toFloats(onRes.latenciesNs), 0.99)/quantile(toFloats(offRes.latenciesNs), 0.99))
			lateNs := make([]float64, len(emitted))
			for j, at := range emitted {
				due := emitted[0] + int64(float64(j)/off.rate*1e9)
				lateNs[j] = float64(at - due)
			}
			lag = append(lag, quantile(lateNs, 0.99)/1e6)
		}
		p.rep.add("adapt.p99_ratio", "ratio", ratio...)
		p.rep.add("workload.source_lag_p99_ms", "ms", lag...)
		return nil
	})

	p.probe("engine:sg-q4-intra P=2", func() error {
		var speedup []float64
		for i := 0; i < reps; i++ {
			p1, err := p.mini("sg-q4-intra", 50, "p1")
			if err != nil {
				return err
			}
			p2 := p1
			p2.parallelism = 2
			r1, r2 := runPass(p1), runPass(p2)
			if err := errors.Join(r1.err, r2.err); err != nil {
				return err
			}
			speedup = append(speedup, r1.elapsed.Seconds()/r2.elapsed.Seconds())
		}
		p.rep.add("ops.shard.p2_speedup", "ratio", speedup...)
		return nil
	})

	// The MU joins every derived record with the upstream records of its
	// window, so its cost per tuple grows with the number of users. Both
	// runs carry the same number of tuples.
	p.probe("engine:cs-q5-inter MU scaling", func() error {
		cpuPerTuple := func(users, windows int) (float64, error) {
			w, _ := workloadByName("cs-q5-inter")
			w.width = users
			in, err := w.prepare(p.cfg.seed, p.cfg.length(w, windows))
			if err != nil {
				return 0, err
			}
			res := runPass(w.pass(in, harness.ModeGL, fmt.Sprintf("mu-%d", users), p.cfg))
			return float64(res.cpuNs) / float64(in.tuples), res.err
		}
		narrow, err := cpuPerTuple(muNarrowUsers, 3*muWindows)
		if err != nil {
			return err
		}
		wide, err := cpuPerTuple(3*muNarrowUsers, muWindows)
		if err != nil {
			return err
		}
		p.rep.add("provenance.mu_scaling_ratio", "ratio", wide/narrow)
		return nil
	})
}

// muNarrowUsers and muWindows size the MU scaling probe: 3x the users at a
// third of the windows. The wide run stays below the width at which the
// seed's inter-process GL deployment deadlocks (README.md).
const (
	muNarrowUsers = 300
	muWindows     = 8
)

// miniResult is what one run of a mini query measured.
type miniResult struct {
	elapsed time.Duration
	sinks   int64
	objects uint64 // heap objects allocated
}

// runMiniQuery builds whatever assemble adds to the builder, connects its
// last node to a counting sink, and runs the query under NP.
func runMiniQuery(name string, opts []query.Option, assemble func(b *query.Builder) *query.Node) (miniResult, error) {
	var res miniResult
	b := query.New(name, opts...)
	last := assemble(b)
	sink := b.AddSink("sink", func(core.Tuple) error { res.sinks++; return nil })
	b.Connect(last, sink)
	q, err := b.Build()
	if err != nil {
		return res, err
	}
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	objs := heapAllocatedObjects()
	begin := time.Now()
	err = q.Run(ctx)
	res.elapsed = time.Since(begin)
	res.objects = heapAllocatedObjects() - objs
	return res, err
}

// transfer pushes n tuples into in from one goroutine while the calling
// goroutine drains out, and returns the elapsed time and the heap objects
// allocated meanwhile. Operators between in and out must already run.
func transfer(ctx context.Context, in, out *ops.Stream, n int, next func(i int) core.Tuple) (time.Duration, uint64, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	objs := heapAllocatedObjects()
	begin := time.Now()
	sendErr := make(chan error, 1)
	go func() {
		defer in.CloseSend(ctx)
		for i := 0; i < n; i++ {
			if err := in.Send(ctx, next(i)); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	got := 0
	var recvErr error
	for {
		batch, ok, err := out.RecvBatch(ctx)
		if err != nil || !ok {
			recvErr = err
			break
		}
		for _, t := range batch {
			if !core.IsHeartbeat(t) {
				got++
			}
		}
	}
	d, allocated := time.Since(begin), heapAllocatedObjects()-objs
	cancel() // a failed receive must not leave the sender blocked
	if err := errors.Join(recvErr, <-sendErr); err != nil {
		return 0, 0, err
	}
	if got != n {
		return 0, 0, fmt.Errorf("received %d of %d tuples", got, n)
	}
	return d, allocated, nil
}

// clicks generates n click events with the workload seed.
func (p *prober) clicks(n int) []core.Tuple {
	users := 100
	g := clickstream.NewGenerator(clickstream.Config{Users: users, Windows: n/(users*clickstream.SessionWindow) + 1,
		HotEvery: 4, Pages: 50, Seed: p.cfg.seed})
	out := make([]core.Tuple, 0, n)
	_ = replay(g.SourceFunc(), func(t core.Tuple) {
		if len(out) < n {
			out = append(out, t)
		}
	})
	return out
}

// layerProbes drives each layer's public constructors and functions on
// tuples from the workloads' generators and times them from outside.
func (p *prober) layerProbes() {
	ctx := context.Background()
	p.probeGenerators()
	p.probeStream(ctx)
	p.probeStateless()
	p.probeStateful()
	p.probeShard(ctx)
	p.probeInstrument()
	p.probeTransport(ctx)
	p.probeStore()
}

func (p *prober) probeGenerators() {
	p.probe("workload.generators", func() error {
		for _, g := range []struct{ metric, workload string }{
			{"workload.lr_gen_ns_per_tuple", "lr-q1-intra"},
			{"workload.sg_gen_ns_per_tuple", "sg-q4-intra"},
			{"workload.cs_gen_ns_per_tuple", "cs-q5-store"},
		} {
			w, _ := workloadByName(g.workload)
			in := w.newInput(p.cfg.seed, p.cfg.size(w.length/5))
			n := 0
			begin := time.Now()
			if err := replay(in.gen, func(core.Tuple) { n++ }); err != nil {
				return err
			}
			p.rep.add(g.metric, "ns", nsPer(time.Since(begin), n))
		}
		return nil
	})
}

func (p *prober) probeStream(ctx context.Context) {
	p.probe("ops.Stream", func() error {
		n := p.cfg.size(1 << 20)
		t := clickstream.NewClickEvent(0, 0, 0, 0)
		next := func(int) core.Tuple { return t }
		for _, batch := range []int{1, 64} {
			s := ops.NewBatchedStream("probe", 0, batch)
			d, objs, err := transfer(ctx, s, s, n, next)
			if err != nil {
				return err
			}
			p.rep.add("ops.stream.handoff_ns_per_tuple_b"+strconv.Itoa(batch), "ns", nsPer(d, n))
			if batch == 64 {
				p.rep.add("ops.stream.allocs_per_tuple_b64", "1/tuple", float64(objs)/float64(n))
			}
		}
		return nil
	})
}

// probeStateless runs Q5's stateless prefix (a filter and a projecting map)
// through the engine's three stateless runtimes.
func (p *prober) probeStateless() {
	p.probe("ops.stateless runtimes", func() error {
		w, _ := workloadByName("cs-q5-store")
		for _, rt := range []struct {
			metric         string
			fusion, vector bool
			batch          int
		}{
			{"ops.stateless.unfused_ns_per_tuple", false, false, 1},
			{"ops.stateless.fused_ns_per_tuple", true, false, 1},
			{"ops.stateless.col_ns_per_tuple_b1", true, true, 1},
			{"ops.stateless.col_ns_per_tuple_b64", true, true, 64},
		} {
			in := w.newInput(p.cfg.seed, p.cfg.size(40))
			opts := []query.Option{query.WithFusion(rt.fusion), query.WithVectorize(rt.vector), query.WithBatchSize(rt.batch)}
			res, err := runMiniQuery(rt.metric, opts, func(b *query.Builder) *query.Node {
				return clickstream.AddQ5Stage1(b, b.AddSource("source", in.gen))
			})
			if err != nil {
				return err
			}
			if res.sinks == 0 {
				return fmt.Errorf("%s: no tuple passed the chain", rt.metric)
			}
			p.rep.add(rt.metric, "ns", nsPer(res.elapsed, in.tuples))
		}
		return nil
	})
}

// probeStateful runs Q4's keyed daily-sum aggregate and its join on their
// own, with row window state and with columnar window state, at batch 64.
func (p *prober) probeStateful() {
	w, _ := workloadByName("sg-q4-intra")
	days := p.cfg.size(50)
	p.probe("ops.Aggregate row/col", func() error {
		for _, rt := range []struct {
			metric string
			vector bool
		}{
			{"ops.aggregate.row_ns_per_tuple", false},
			{"ops.aggregate.col_ns_per_tuple", true},
		} {
			in := w.newInput(p.cfg.seed, days)
			opts := []query.Option{query.WithVectorize(rt.vector), query.WithBatchSize(w.batch)}
			res, err := runMiniQuery(rt.metric, opts, func(b *query.Builder) *query.Node {
				return smartgrid.AddQ3Stage1(b, b.AddSource("source", in.gen))
			})
			if err != nil {
				return err
			}
			if want := int64(w.width * days); res.sinks != want {
				return fmt.Errorf("%s: %d daily sums, want %d", rt.metric, res.sinks, want)
			}
			p.rep.add(rt.metric, "ns", nsPer(res.elapsed, in.tuples))
			if rt.vector {
				p.rep.add("ops.aggregate.allocs_per_tuple", "1/tuple", float64(res.objects)/float64(in.tuples))
			}
		}
		// The same columnar run with the source stopped at ten points: what
		// the aggregate holds beyond what was live before it started.
		in := w.newInput(p.cfg.seed, days)
		base := float64(liveHeap())
		heap := heapSampler{every: max(in.tuples/p.cfg.size(heapSamples), 1)}
		_, err := runMiniQuery("ops.aggregate.state", []query.Option{query.WithBatchSize(w.batch)}, func(b *query.Builder) *query.Node {
			src := b.AddSource("source", in.gen)
			src.OnEmit = heap.onEmit
			return smartgrid.AddQ3Stage1(b, src)
		})
		if err != nil {
			return err
		}
		p.rep.add("ops.aggregate.state_live_mb", "MB", max(quantile(heap.liveBytes, 1)-base, 0)/(1<<20))
		return nil
	})
	p.probe("ops.Join row/col", func() error {
		// Left: one daily sum per meter and day, stamped at the day's end.
		// Right: every meter's midnight reading. Every pair matches, so the
		// join does meters x days probes that hit.
		side := func(left bool) ops.SourceFunc {
			return func(ctx context.Context, emit func(core.Tuple) error) error {
				for d := 1; d <= days; d++ {
					ts := int64(d) * smartgrid.HoursPerDay
					for m := 0; m < w.width; m++ {
						var t core.Tuple = smartgrid.NewMeterReading(ts, int32(m), 300)
						if left {
							t = &smartgrid.DailyCons{Base: core.NewBase(ts), MeterID: int32(m), ConsSum: 24}
						}
						if err := emit(t); err != nil {
							return err
						}
					}
				}
				return nil
			}
		}
		probes := 2 * w.width * days
		for _, rt := range []struct {
			metric string
			vector bool
		}{
			{"ops.join.row_ns_per_probe", false},
			{"ops.join.col_ns_per_probe", true},
		} {
			opts := []query.Option{query.WithVectorize(rt.vector), query.WithBatchSize(w.batch)}
			res, err := runMiniQuery(rt.metric, opts, func(b *query.Builder) *query.Node {
				return smartgrid.AddQ4Stage2(b, smartgrid.Q4Stage1Outputs{
					Daily: b.AddSource("daily", side(true)), Midnight: b.AddSource("midnight", side(false))})
			})
			if err != nil {
				return err
			}
			if want := int64(w.width * days); res.sinks != want {
				return fmt.Errorf("%s: %d alerts, want %d", rt.metric, res.sinks, want)
			}
			p.rep.add(rt.metric, "ns", nsPer(res.elapsed, probes))
		}
		return nil
	})
}

// probeShard times a tuple's trip through a two-lane partitioner and the
// fan-in merge, with nothing in the lanes.
func (p *prober) probeShard(ctx context.Context) {
	p.probe("ops.Partition+FanIn", func() error {
		const lanes, batch, meters = 2, 64, 500
		n := p.cfg.size(1 << 18)
		keys := make([]string, meters)
		for i := range keys {
			keys[i] = strconv.Itoa(i)
		}
		in := ops.NewBatchedStream("in", 0, batch)
		out := ops.NewBatchedStream("out", 0, batch)
		var shard []*ops.Stream
		for i := 0; i < lanes; i++ {
			shard = append(shard, ops.NewBatchedStream("lane"+strconv.Itoa(i), 0, batch))
		}
		wait := start(ctx, []ops.Operator{
			ops.NewPartition("part", in, shard, func(t core.Tuple) string { return keys[t.(*smartgrid.MeterReading).MeterID] }),
			ops.NewFanIn("merge", shard, out)})
		d, _, err := transfer(ctx, in, out, n, func(i int) core.Tuple {
			return smartgrid.NewMeterReading(int64(i/meters), int32(i%meters), 1)
		})
		if err != nil {
			return err
		}
		p.rep.add("ops.shard.partition_fanin_ns_per_tuple", "ns", nsPer(d, n))
		return wait()
	})
}

// probeInstrument calls the instrumenter hooks in the order Q5 fires them
// for one source tuple — source, map, aggregate link, and one aggregate
// emission per window of eight — under GL and under NP.
func (p *prober) probeInstrument() {
	p.probe("core.Instrumenter hooks", func() error {
		n := p.cfg.size(1 << 19)
		hooks := func(instr core.Instrumenter) time.Duration {
			src := make([]core.Tuple, n)
			mapped := make([]core.Tuple, n)
			for i := range src {
				src[i] = clickstream.NewClickEvent(int64(i), 0, 0, 0)
				mapped[i] = &clickstream.EngagedClick{Base: core.NewBase(int64(i))}
			}
			runtime.GC()
			begin := time.Now()
			var prev core.Tuple
			for i := range src {
				instr.OnSource(src[i])
				instr.OnMap(mapped[i], src[i])
				instr.OnAggregateLink(prev, mapped[i])
				prev = mapped[i]
				if i%clickstream.SessionWindow == clickstream.SessionWindow-1 {
					out := &clickstream.SessionCount{Base: core.NewBase(int64(i))}
					instr.OnAggregateEmit(out, mapped[i+1-clickstream.SessionWindow:i+1])
					prev = nil
				}
			}
			return time.Since(begin)
		}
		np := hooks(core.Noop{})
		gl := hooks(&core.Genealog{})
		p.rep.add("core.instrument_ns_per_tuple", "ns", nsPer(gl-np, n))
		return nil
	})
}

func (p *prober) probeTransport(ctx context.Context) {
	clickstream.RegisterWire()
	n := p.cfg.size(100000)
	tuples := p.clicks(n)
	ids := core.NewIDGen(1)
	instr := &core.Genealog{IDs: ids}
	for _, t := range tuples {
		instr.OnSource(t)
	}
	p.probe("transport codecs", func() error {
		for _, c := range []struct {
			name  string
			codec transport.Codec
		}{{"gob", transport.GobCodec{}}, {"binary", transport.BinaryCodec{}}} {
			var buf bytes.Buffer
			enc := c.codec.NewEncoder(&buf)
			begin := time.Now()
			for _, t := range tuples {
				if err := enc.Encode(t); err != nil {
					return err
				}
			}
			encD := time.Since(begin)
			size := buf.Len()
			dec := c.codec.NewDecoder(&buf)
			begin = time.Now()
			for range tuples {
				if _, err := dec.Decode(); err != nil {
					return err
				}
			}
			decD := time.Since(begin)
			if _, err := dec.Decode(); err != io.EOF {
				return fmt.Errorf("%s: decoder did not end at EOF: %v", c.name, err)
			}
			p.rep.add("transport."+c.name+"_encode_ns_per_tuple", "ns", nsPer(encD, n))
			p.rep.add("transport."+c.name+"_decode_ns_per_tuple", "ns", nsPer(decD, n))
			p.rep.add("transport."+c.name+"_bytes_per_tuple", "B", float64(size)/float64(n))
		}
		return nil
	})
	// Send -> pipe -> Receive with the default codec at batch 1, the shape of
	// every cs-q5-inter link.
	p.probe("transport.Link", func() error {
		link := transport.NewLink()
		in, out := ops.NewStream("to-send", 0), ops.NewStream("from-recv", 0)
		wait := start(ctx, []ops.Operator{
			transport.NewSend("send", in, link.Enc, link.Closer, instr),
			transport.NewReceive("recv", out, link.Dec, instr)})
		d, objs, err := transfer(ctx, in, out, n, func(i int) core.Tuple { return tuples[i] })
		if err != nil {
			link.Closer.Close()
			return err
		}
		p.rep.add("transport.link_ns_per_tuple", "ns", nsPer(d, n))
		p.rep.add("transport.allocs_per_tuple", "1/tuple", float64(objs)/float64(n))
		return wait()
	})
}

// probeStore replays the provenance one Q5 GL run assembles into the store's
// backends, then reads the file log back.
func (p *prober) probeStore() {
	var results []provenance.Result
	horizon := storeHorizon(harness.Q5)
	path := filepath.Join(p.cfg.outDir, "probe.provlog")
	defer os.Remove(path)
	ingest := func(st *provstore.Store) (time.Duration, error) {
		begin := time.Now()
		for _, r := range results {
			if _, err := st.Ingest(r.Sink, r.Sources); err != nil {
				return 0, err
			}
		}
		err := st.Close()
		return time.Since(begin), err
	}
	p.probe("provstore ingest", func() error {
		c, err := p.mini("cs-q5-store", 40, "store-probe")
		if err != nil {
			return err
		}
		c.storePath = ""
		c.onProvenance = func(r provenance.Result) { results = append(results, r) }
		if res := runPass(c); res.err != nil {
			return res.err
		}
		d, err := ingest(provstore.NewMemory(provstore.Options{Horizon: horizon}))
		if err != nil {
			return err
		}
		p.rep.add("provstore.ingest_ns_per_sink", "ns", nsPer(d, len(results)))
		st, err := provstore.Create(path, provstore.Options{Horizon: horizon})
		if err != nil {
			return err
		}
		if d, err = ingest(st); err != nil {
			return err
		}
		stats := st.Stats()
		p.rep.add("provstore.filelog_ingest_ns_per_sink", "ns", nsPer(d, len(results)))
		p.rep.add("provstore.bytes_per_sink", "B", float64(stats.Bytes)/float64(stats.Sinks))
		p.rep.add("provstore.dedup_ratio", "ratio", stats.DedupRatio())
		return nil
	})
	n := len(results)
	results = nil
	var entries []storedResult
	p.probe("provstore open+query", func() error {
		base := liveHeap()
		st, err := provstore.OpenRead(path)
		if err != nil {
			return err
		}
		p.rep.add("provstore.index_live_mb", "MB", float64(max(liveHeap(), base)-base)/(1<<20))
		sq, err := queryStore(path, 1, storeLookups, rand.New(rand.NewSource(p.cfg.seed)))
		if err != nil {
			return err
		}
		p.rep.add("provstore.backward_ns", "ns", sq.backward...)
		p.rep.add("provstore.forward_ns", "ns", sq.forward...)
		for _, id := range st.SinkIDs() {
			sink, sources, err := st.Backward(id)
			if err != nil {
				return err
			}
			entries = append(entries, storedResult{sink, sources})
		}
		runtime.KeepAlive(st)
		return nil
	})
	// The store node: one ingest connection, then two at once. A server that
	// serialises ingest behind one lock scales at 1.0, an ideal one at 2.0.
	p.probe("provstore remote ingest", func() error {
		one, err := remoteIngest(entries, horizon, 1)
		if err != nil {
			return err
		}
		two, err := remoteIngest(entries, horizon, 2)
		if err != nil {
			return err
		}
		p.rep.add("provstore.remote_ingest_ns_per_sink", "ns", nsPer(one, max(n, 1)))
		p.rep.add("provstore.remote_2conn_scaling", "ratio", 2*one.Seconds()/two.Seconds())
		return nil
	})
}

// storedResult is one sink entry with its source entries, as read back from
// a file log.
type storedResult struct {
	sink    provstore.SinkEntry
	sources []provstore.SourceEntry
}

// remoteIngest streams the entries to a fresh in-memory store node over
// conns connections at once (every connection sends all of them) and returns
// the elapsed time until every frame is acknowledged.
func remoteIngest(entries []storedResult, horizon int64, conns int) (time.Duration, error) {
	srv := provstore.NewServer(provstore.NewMemoryBackend(horizon))
	errs := make([]error, conns)
	var wg, serving sync.WaitGroup
	begin := time.Now()
	for i := 0; i < conns; i++ {
		client, server := net.Pipe()
		serving.Add(1)
		go func() {
			defer serving.Done()
			defer server.Close()
			_ = srv.ServeConn(server) // ends when the client closes
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = func() error {
				re, err := provstore.NewRemote(client, horizon)
				if err != nil {
					return err
				}
				seen := map[uint64]bool{}
				for _, e := range entries {
					for _, s := range e.sources {
						if seen[s.ID] {
							continue
						}
						seen[s.ID] = true
						if err := re.AppendSource(s); err != nil {
							return err
						}
					}
					if err := re.AppendSink(e.sink); err != nil {
						return err
					}
				}
				return re.Close()
			}()
		}()
	}
	wg.Wait()
	d := time.Since(begin)
	serving.Wait()
	if err := srv.Close(); err != nil {
		return 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if got, want := srv.Stats().Sinks, int64(conns*len(entries)); got != want {
		return 0, fmt.Errorf("store node holds %d sink entries, want %d", got, want)
	}
	return d, nil
}
