// Benchmarks regenerating the paper's evaluation (one benchmark family per
// figure). Each Fig12/Fig13 benchmark executes a full measured run of one
// (query, technique) cell and reports the paper's metrics — throughput,
// latency, memory — as custom benchmark outputs, so
//
//	go test -bench BenchmarkFig12 -benchmem
//
// prints the rows of Figure 12. BenchmarkFig14 isolates the contribution
// graph traversal on the four queries' graph shapes. For tabular output
// with confidence intervals, use cmd/genealog-bench instead.
package genealog_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"genealog/internal/clickstream"
	"genealog/internal/core"
	"genealog/internal/harness"
	"genealog/internal/linearroad"
	"genealog/internal/ops"
	"genealog/internal/provenance"
	"genealog/internal/query"
	"genealog/internal/smartgrid"
	"genealog/internal/telemetry"
	"genealog/internal/transport"
)

// benchOptions is the workload used by the figure benchmarks: large enough
// for stable rates, small enough to iterate.
func benchOptions() harness.Options {
	return harness.Options{
		LR: linearroad.Config{
			Cars: 100, Steps: 300, StopEvery: 10, StopDuration: 6,
			AccidentEvery: 40, Seed: 42,
		},
		SG: smartgrid.Config{
			Meters: 60, Days: 40, BlackoutEvery: 7,
			BlackoutMeters: smartgrid.BlackoutMeterThreshold + 1,
			AnomalyEvery:   5, AnomalyValue: 300, Seed: 7,
		},
		CS: clickstream.Config{
			Users: 60, Windows: 40, HotEvery: 5, Pages: 100, Seed: 23,
		},
		MemSampleEvery: 2 * time.Millisecond,
	}
}

func benchFigure(b *testing.B, deployment harness.Deployment) {
	for _, q := range harness.Queries {
		for _, m := range harness.Modes {
			b.Run(string(q)+"/"+string(m), func(b *testing.B) {
				o := benchOptions()
				o.Query, o.Mode, o.Deployment = q, m, deployment
				var last harness.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := harness.Run(context.Background(), o)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.StopTimer()
				b.ReportMetric(last.ThroughputTPS, "tuples/s")
				b.ReportMetric(last.AvgLatencyMs, "lat-ms")
				b.ReportMetric(last.AvgMemMB, "avgmem-MB")
				b.ReportMetric(last.MaxMemMB, "maxmem-MB")
				if deployment == harness.Inter {
					b.ReportMetric(float64(last.NetBytes), "net-B")
				}
			})
		}
	}
}

// BenchmarkFig12 regenerates Figure 12: intra-process overhead of NP, GL
// and BL on Q1-Q4.
func BenchmarkFig12(b *testing.B) { benchFigure(b, harness.Intra) }

// BenchmarkFig13 regenerates Figure 13: the same grid across three SPE
// instances connected by serialising links.
func BenchmarkFig13(b *testing.B) { benchFigure(b, harness.Inter) }

// BenchmarkFig14 regenerates Figure 14's intra-process panel: the cost of
// one contribution-graph traversal for each query's graph shape (Q1: 4
// sources through one aggregate; Q2: 8 through two; Q3: 192 through nested
// daily aggregates; Q4: 25 through a join over a daily window).
func BenchmarkFig14(b *testing.B) {
	b.Run("Q1", func(b *testing.B) { benchTraversal(b, aggregateGraph(4)) })
	b.Run("Q2", func(b *testing.B) { benchTraversal(b, q2Graph()) })
	b.Run("Q3", func(b *testing.B) { benchTraversal(b, q3Graph()) })
	b.Run("Q4", func(b *testing.B) { benchTraversal(b, q4Graph()) })
}

func benchTraversal(b *testing.B, root core.Tuple) {
	want := len(core.FindProvenance(root))
	b.ReportMetric(float64(want), "graph-size")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := core.FindProvenance(root); len(got) != want {
			b.Fatalf("traversal returned %d tuples, want %d", len(got), want)
		}
	}
}

// benchTuple is a minimal Traceable tuple for graph construction.
type benchTuple struct{ core.Base }

func bt(ts int64) *benchTuple { return &benchTuple{Base: core.NewBase(ts)} }

// aggregateGraph builds one aggregate output over n chained source tuples
// (Q1's shape with n=4).
func aggregateGraph(n int) core.Tuple {
	srcs := make([]*benchTuple, n)
	for i := range srcs {
		srcs[i] = bt(int64(i))
		srcs[i].SetKind(core.KindSource)
		if i > 0 {
			srcs[i-1].SetNext(srcs[i])
		}
	}
	out := bt(0)
	out.SetKind(core.KindAggregate)
	out.SetU2(srcs[0])
	out.SetU1(srcs[n-1])
	return out
}

// q2Graph: an aggregate of two Q1-shaped aggregates (8 sources).
func q2Graph() core.Tuple {
	in1 := aggregateGraph(4).(*benchTuple)
	in2 := aggregateGraph(4).(*benchTuple)
	in1.SetNext(in2)
	out := bt(0)
	out.SetKind(core.KindAggregate)
	out.SetU2(in1)
	out.SetU1(in2)
	return out
}

// q3Graph: an aggregate of 8 daily aggregates of 24 readings each (192
// sources).
func q3Graph() core.Tuple {
	days := make([]*benchTuple, 8)
	for i := range days {
		days[i] = aggregateGraph(24).(*benchTuple)
		if i > 0 {
			days[i-1].SetNext(days[i])
		}
	}
	out := bt(0)
	out.SetKind(core.KindAggregate)
	out.SetU2(days[0])
	out.SetU1(days[7])
	return out
}

// q4Graph: a join of a daily aggregate (24 readings) with a midnight
// reading (25 sources).
func q4Graph() core.Tuple {
	daily := aggregateGraph(24)
	midnight := bt(24)
	midnight.SetKind(core.KindSource)
	out := bt(24)
	out.SetKind(core.KindJoin)
	out.SetU1(midnight)
	out.SetU2(daily)
	return out
}

// BenchmarkAdaptiveBatch measures the adaptive batch-sizing controller on
// the bursty clickstream workload: the Q5 source alternates between a fast
// burst phase and a near-idle phase, the regime where no fixed batch size
// wins — batch 1 keeps idle-phase latency low but throttles the bursts,
// batch 64 absorbs the bursts but holds tuples hostage in half-empty
// batches while the source trickles. The adaptive cell lets the AIMD
// controller resize live from queue occupancy and batch fill. The
// acceptance targets: adaptive throughput within 10% of fixed-64, adaptive
// p99 latency below fixed-64 (which pays the batch-linger tail in the idle
// phase). Run with
//
//	go test -bench BenchmarkAdaptiveBatch -benchtime 1x
func BenchmarkAdaptiveBatch(b *testing.B) {
	cells := []struct {
		name string
		set  func(o *harness.Options)
	}{
		{"fixed-1", func(o *harness.Options) { o.BatchSize = 1 }},
		{"fixed-64", func(o *harness.Options) { o.BatchSize = 64 }},
		{"adaptive", func(o *harness.Options) { o.AdaptiveBatch = true }},
	}
	refSinks := int64(-1)
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				o := benchOptions()
				o.Query, o.Mode, o.Deployment = harness.Q5, harness.ModeNP, harness.Intra
				o.SourceBurst = &ops.BurstPacing{
					BurstRate: 200_000, IdleRate: 1_000,
					BurstFor: 20 * time.Millisecond, IdleFor: 40 * time.Millisecond,
				}
				c.set(&o)
				r, err := harness.Run(context.Background(), o)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			if refSinks == -1 {
				refSinks = last.SinkTuples
			} else if last.SinkTuples != refSinks {
				b.Fatalf("%s produced %d sink tuples, reference %d", c.name, last.SinkTuples, refSinks)
			}
			b.ReportMetric(last.ThroughputTPS, "tuples/s")
			b.ReportMetric(last.P99LatencyMs, "p99-ms")
			b.ReportMetric(last.P50LatencyMs, "p50-ms")
		})
	}
}

// BenchmarkSizeReport regenerates the §7 provenance-volume remark: GL
// provenance bytes as a fraction of source bytes per query.
func BenchmarkSizeReport(b *testing.B) {
	for _, q := range harness.Queries {
		b.Run(string(q), func(b *testing.B) {
			o := benchOptions()
			o.Query, o.Mode, o.Deployment = q, harness.ModeGL, harness.Intra
			var last harness.Result
			for i := 0; i < b.N; i++ {
				r, err := harness.Run(context.Background(), o)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(100*last.ProvRatio(), "prov-%")
			b.ReportMetric(float64(last.ProvBytes), "prov-B")
			b.ReportMetric(float64(last.SourceBytes), "source-B")
		})
	}
}

// BenchmarkProvStoreOverhead measures the cost of serving-side provenance
// persistence: a full GL run of Q1 with the durable provenance store off
// versus on (append-only file log), serial and at Parallelism(4). The store
// ingests every assembled contribution set — deduplicated, watermark-retired
// — so the delta over store-off is the price of turning provenance from a
// run-time observation into a queryable artifact. Run with
//
//	go test -bench BenchmarkProvStoreOverhead -benchtime 1x
func BenchmarkProvStoreOverhead(b *testing.B) {
	for _, p := range []int{1, 4} {
		for _, store := range []bool{false, true} {
			b.Run(fmt.Sprintf("parallelism-%d/store-%v", p, store), func(b *testing.B) {
				o := benchOptions()
				o.Query, o.Mode, o.Deployment = harness.Q1, harness.ModeGL, harness.Intra
				o.Parallelism = p
				if store {
					o.StorePath = filepath.Join(b.TempDir(), "prov.glprov")
				}
				var last harness.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := harness.Run(context.Background(), o)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.StopTimer()
				if store && (last.ProvStoreSinks != last.SinkTuples || last.ProvStoreBytes == 0) {
					b.Fatalf("store did not persist every result: %d sinks stored, %d delivered, %d bytes",
						last.ProvStoreSinks, last.SinkTuples, last.ProvStoreBytes)
				}
				b.ReportMetric(last.ThroughputTPS, "tuples/s")
				if store {
					b.ReportMetric(float64(last.ProvStoreBytes), "store-B")
					b.ReportMetric(last.ProvStoreDedup, "dedup-x")
				}
			})
		}
	}
}

// BenchmarkAblationSelectiveProvenance measures the paper's future-work
// item (i): an Aggregate whose output depends on a single window tuple
// (max) with full-window provenance versus selective provenance. The
// selective variant traverses and retains one tuple per window instead of
// the whole window.
func BenchmarkAblationSelectiveProvenance(b *testing.B) {
	for _, selective := range []bool{false, true} {
		name := "full-window"
		if selective {
			name = "selective"
		}
		b.Run(name, func(b *testing.B) {
			var traversed float64
			for i := 0; i < b.N; i++ {
				traversed = runMaxAggregate(b, selective)
			}
			b.ReportMetric(traversed, "prov-tuples/sink")
		})
	}
}

func runMaxAggregate(b *testing.B, selective bool) float64 {
	qb := query.New("ablation", query.WithInstrumenter(&core.Genealog{}))
	src := qb.AddSource("src", func(ctx context.Context, emit func(core.Tuple) error) error {
		for i := 0; i < 50_000; i++ {
			if err := emit(&ablTuple{Base: core.NewBase(int64(i)), Val: int64(i % 997)}); err != nil {
				return err
			}
		}
		return nil
	})
	spec := ops.AggregateSpec{
		WS: 100, WA: 100,
		Fold: func(w []core.Tuple, start, end int64, key string) core.Tuple {
			max := w[0].(*ablTuple)
			for _, t := range w {
				if v := t.(*ablTuple); v.Val > max.Val {
					max = v
				}
			}
			return &ablTuple{Base: core.NewBase(start), Val: max.Val}
		},
	}
	if selective {
		spec.Contributors = func(w []core.Tuple) []core.Tuple {
			max := w[0]
			for _, t := range w {
				if t.(*ablTuple).Val > max.(*ablTuple).Val {
					max = t
				}
			}
			return []core.Tuple{max}
		}
	}
	agg := qb.AddAggregate("max", spec)
	qb.Connect(src, agg)
	so, u := provenance.AddSU(qb, "su", agg, provenance.SUConfig{})
	qb.Connect(so, qb.AddSink("sink", nil))
	var results, sources int
	provenance.AddCollector(qb, "prov", u, func(r provenance.Result) {
		results++
		sources += len(r.Sources)
	})
	q, err := qb.Build()
	if err != nil {
		b.Fatal(err)
	}
	if err := q.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	if results == 0 {
		b.Fatal("no provenance results")
	}
	return float64(sources) / float64(results)
}

type ablTuple struct {
	core.Base
	Val int64
}

func (t *ablTuple) CloneTuple() core.Tuple {
	cp := *t
	cp.ResetProvenance()
	return &cp
}

// BenchmarkShardScaling measures the keyed shard-parallel execution layer:
// the same keyed aggregation with a CPU-heavy fold at parallelism 1, 2 and
// 4. On a multi-core runner the tuples/s metric scales towards the shard
// count (the acceptance target is >= 1.5x at parallelism 4 vs 1); the sink
// output is byte-identical at every level, which sink-count below asserts
// cheaply. Run with
//
//	go test -bench BenchmarkShardScaling -benchtime 1x
func BenchmarkShardScaling(b *testing.B) {
	serialSinks := -1
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallelism-%d", p), func(b *testing.B) {
			var tput float64
			var sinks int
			for i := 0; i < b.N; i++ {
				tput, sinks = runScalingAggregate(b, p, 1, 400)
			}
			if serialSinks == -1 {
				serialSinks = sinks
			} else if sinks != serialSinks {
				b.Fatalf("parallelism %d produced %d sink tuples, serial %d", p, sinks, serialSinks)
			}
			b.ReportMetric(tput, "tuples/s")
		})
	}
}

// BenchmarkBatchedThroughput measures the batched stream transport on a
// Q1/Q3-shaped pipeline — map and filter prefix stages feeding a keyed
// aggregation with a cheap fold — where the per-tuple channel operations,
// not the user functions, dominate: batch size 64 versus unbatched, serial
// and at Parallelism(4). The acceptance target is >= 1.5x tuples/s at
// Parallelism(4) with batching versus batch size 1; the sink count is
// asserted identical across all cells. Run with
//
//	go test -bench BenchmarkBatchedThroughput -benchtime 1x
func BenchmarkBatchedThroughput(b *testing.B) {
	serialSinks := -1
	for _, p := range []int{1, 4} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("parallelism-%d/batch-%d", p, batch), func(b *testing.B) {
				var tput float64
				var sinks int
				for i := 0; i < b.N; i++ {
					tput, sinks = runBatchedPipeline(b, p, batch, true, true, nil)
				}
				if serialSinks == -1 {
					serialSinks = sinks
				} else if sinks != serialSinks {
					b.Fatalf("parallelism %d batch %d produced %d sink tuples, serial %d", p, batch, sinks, serialSinks)
				}
				b.ReportMetric(tput, "tuples/s")
			})
		}
	}
}

// BenchmarkFusedThroughput measures the physical planner on the same
// map -> filter -> keyed-aggregate pipeline: fusion off (one goroutine and
// stream per logical operator, the pre-planner engine) versus fusion on
// (map+filter fused, and — at Parallelism(4) — the fused prefix hoisted
// into the shard lanes behind a partitioner that routes by the map's
// declared ShardKey), with the columnar pass off (row closures) versus on
// (the prefix as a vectorized ColChain, routing keys extracted
// batch-at-a-time), serial and at Parallelism(4), unbatched and at batch
// 64. The sink count is asserted identical across all cells. Run with
//
//	go test -bench BenchmarkFusedThroughput -benchtime 1x
func BenchmarkFusedThroughput(b *testing.B) {
	serialSinks := -1
	for _, fused := range []bool{false, true} {
		for _, vec := range []bool{false, true} {
			for _, p := range []int{1, 4} {
				for _, batch := range []int{1, 64} {
					b.Run(fmt.Sprintf("fused-%v/vec-%v/parallelism-%d/batch-%d", fused, vec, p, batch), func(b *testing.B) {
						var tput float64
						var sinks int
						for i := 0; i < b.N; i++ {
							tput, sinks = runBatchedPipeline(b, p, batch, fused, vec, nil)
						}
						if serialSinks == -1 {
							serialSinks = sinks
						} else if sinks != serialSinks {
							b.Fatalf("fused=%v vec=%v parallelism %d batch %d produced %d sink tuples, serial %d",
								fused, vec, p, batch, sinks, serialSinks)
						}
						b.ReportMetric(tput, "tuples/s")
					})
				}
			}
		}
	}
}

// BenchmarkTelemetryOverhead measures what live telemetry costs the batched
// map -> filter -> keyed-aggregate pipeline at batch 64: off (the default nil
// hook pointers — one dead branch per batch) versus on (a registry attached,
// every stream and segment counting). The off cell is the regression guard:
// it must stay within noise of the telemetry-free engine, since disabled
// telemetry is a single nil check per batch and nothing per tuple. Run with
//
//	go test -bench BenchmarkTelemetryOverhead -benchtime 1x
func BenchmarkTelemetryOverhead(b *testing.B) {
	offSinks := -1
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("telemetry-%v", on), func(b *testing.B) {
			var tput float64
			var sinks int
			for i := 0; i < b.N; i++ {
				var telem *telemetry.Registry
				if on {
					telem = telemetry.NewRegistry()
				}
				tput, sinks = runBatchedPipeline(b, 1, 64, true, true, telem)
				if on {
					// The registry must have seen the traffic it claims to
					// measure, or the "on" cell benchmarks nothing.
					snap := telem.Snapshot()
					if len(snap.Queries) != 1 || len(snap.Queries[0].Streams) == 0 {
						b.Fatalf("telemetry-on run registered %d queries", len(snap.Queries))
					}
				}
			}
			if offSinks == -1 {
				offSinks = sinks
			} else if sinks != offSinks {
				b.Fatalf("telemetry=%v produced %d sink tuples, off %d", on, sinks, offSinks)
			}
			b.ReportMetric(tput, "tuples/s")
		})
	}
}

// runBatchedPipeline runs source -> map -> filter -> keyed aggregate ->
// sink over keys x steps tuples, the transport-dominated workload of
// BenchmarkBatchedThroughput and BenchmarkFusedThroughput, returning
// throughput and the sink count. fuse toggles the physical planner; the map
// declares its input partition key so the fused map+filter prefix hoists
// into the shard lanes at parallelism > 1. vectorize toggles the columnar
// pass: map, filter and the aggregate (group-by key and fold) all declare
// typed kernels, so the map+filter prefix and the window state run over
// columns — in one columnar span per shard lane when the prefix hoists.
func runBatchedPipeline(b *testing.B, parallelism, batch int, fuse, vectorize bool, telem *telemetry.Registry) (float64, int) {
	const (
		keys  = 64
		steps = 400
	)
	keyNames := make([]string, keys)
	for k := range keyNames {
		keyNames[k] = "k" + strconv.Itoa(k)
	}
	opts := []query.Option{query.WithInstrumenter(core.Noop{}), query.WithBatchSize(batch),
		query.WithFusion(fuse), query.WithVectorize(vectorize)}
	if telem != nil {
		opts = append(opts, query.WithTelemetry(telem))
	}
	qb := query.New("batched", opts...)
	src := qb.AddSource("src", func(ctx context.Context, emit func(core.Tuple) error) error {
		for ts := 0; ts < steps; ts++ {
			for k := 0; k < keys; k++ {
				if err := emit(&keyedTuple{Base: core.NewBase(int64(ts)), Key: keyNames[k], Val: int64(ts + k)}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	mp := qb.AddMap("map", func(t core.Tuple, emit func(core.Tuple)) { emit(t) }).
		ShardKeyed(func(t core.Tuple) string { return t.(*keyedTuple).Key }).
		Columnar(query.ColSpec{Schema: keyedSchema, Map: keyedIdentityKernel})
	fl := qb.AddFilter("filter", func(t core.Tuple) bool { return t.(*keyedTuple).Val >= 0 }).
		Columnar(query.ColSpec{Schema: keyedSchema, Filter: keyedNonNegKernel})
	agg := qb.AddAggregate("agg", ops.AggregateSpec{
		WS: 8, WA: 8,
		Key: func(t core.Tuple) string { return t.(*keyedTuple).Key },
		Fold: func(w []core.Tuple, start, end int64, key string) core.Tuple {
			var sum int64
			for _, t := range w {
				sum += t.(*keyedTuple).Val
			}
			return &keyedTuple{Base: core.NewBase(start), Key: key, Val: sum}
		},
	}).ColumnarAgg(query.AggColSpec{Schema: keyedSchema, Key: keyedKeyKernel, Fold: keyedSumFold}).Parallel(parallelism)
	var sinks int
	sink := qb.AddSink("sink", func(core.Tuple) error { sinks++; return nil })
	qb.Connect(src, mp)
	qb.Connect(mp, fl)
	qb.Connect(fl, agg)
	qb.Connect(agg, sink)
	q, err := qb.Build()
	if err != nil {
		b.Fatal(err)
	}
	begin := time.Now()
	if err := q.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(begin)
	if sinks == 0 {
		b.Fatal("no sink tuples")
	}
	return float64(keys*steps) / elapsed.Seconds(), sinks
}

// keyedTuple carries a precomputed group key so key extraction allocates
// nothing (the transport, not key formatting, is what the batching
// benchmark measures).
type keyedTuple struct {
	core.Base
	Key string
	Val int64
}

func (t *keyedTuple) CloneTuple() core.Tuple {
	cp := *t
	cp.ResetProvenance()
	return &cp
}

// keyedSchema is keyedTuple's columnar schema: the group key and the value.
var keyedSchema = &ops.ColSchema{Fields: []ops.ColField{
	{Name: "key", Kind: ops.ColString, Str: func(t core.Tuple) string { return t.(*keyedTuple).Key }},
	{Name: "val", Kind: ops.ColInt64, Int: func(t core.Tuple) int64 { return t.(*keyedTuple).Val }},
}}

const (
	keyedFieldKey = 0
	keyedFieldVal = 1
)

// keyedIdentityKernel vectorizes the pipeline's identity map using the
// MapKernel identity contract: returning nil declares every selected row
// maps to itself, so the runtime materialises nothing.
func keyedIdentityKernel(c *ops.ColBatch, sel []int, dst []core.Tuple) []core.Tuple {
	return nil
}

// keyedNonNegKernel vectorizes the pipeline's Val >= 0 filter.
func keyedNonNegKernel(c *ops.ColBatch, sel []int, dst []int) []int {
	vals := c.Int64s(keyedFieldVal)
	for _, pos := range sel {
		if vals[pos] >= 0 {
			dst = append(dst, pos)
		}
	}
	return dst
}

// keyedKeyKernel vectorizes the pipeline's group-by/routing key extraction.
func keyedKeyKernel(c *ops.ColBatch, sel []int, dst []string) []string {
	keys := c.Strings(keyedFieldKey)
	for _, pos := range sel {
		dst = append(dst, keys[pos])
	}
	return dst
}

// keyedSumFold vectorizes the pipeline's per-window sum.
func keyedSumFold(seg *ops.ColSeg, start, end int64, key string) core.Tuple {
	var sum int64
	for _, v := range seg.Int64s(keyedFieldVal) {
		sum += v
	}
	return &keyedTuple{Base: core.NewBase(start), Key: key, Val: sum}
}

// BenchmarkKernels compares the row path against the columnar path on the
// physical operators themselves: the same stateless stages running as a
// tuple-at-a-time FusedChain (row) versus a vectorized ColChain (vec), over
// identical pre-filled input streams at batch 1, 64 and 1024. The chain
// cells — an identity map feeding a selective filter, the batched
// pipeline's stateless prefix — are the acceptance target: at a batch size
// >= 64 the columnar chain must reach >= 1.3x the row chain's tuples/s.
// It clears that at both 64 and 1024 (~1.4x): the chain binds with a nil
// fill selection while every row is still live, so column extraction
// ranges the rows directly, and an all-survivors run delivers as one bulk
// gather — the per-run fixed costs that used to hold batch 64 to ~1.2x.
// At batch 1 the row path is expected to win (a one-row extraction is all
// overhead); that cell is the floor the planner's batch-size choice trades
// against. Run with
//
//	go test -bench BenchmarkKernels -benchtime 1x
func BenchmarkKernels(b *testing.B) {
	// The kernels read only the value column, so that is all the stages
	// declare — extraction cost tracks the columns used, not the tuple.
	valSchema := &ops.ColSchema{Fields: []ops.ColField{
		{Name: "val", Kind: ops.ColInt64, Int: func(t core.Tuple) int64 { return t.(*keyedTuple).Val }},
	}}
	pred := func(t core.Tuple) bool { return t.(*keyedTuple).Val%2 == 0 }
	evenKernel := func(c *ops.ColBatch, sel []int, dst []int) []int {
		vals := c.Int64s(0)
		for _, pos := range sel {
			if vals[pos]%2 == 0 {
				dst = append(dst, pos)
			}
		}
		return dst
	}
	identityMap := func(t core.Tuple, emit func(core.Tuple)) { emit(t) }
	transformMap := func(t core.Tuple, emit func(core.Tuple)) {
		kt := t.(*keyedTuple)
		emit(&keyedTuple{Base: core.NewBase(kt.Timestamp()), Key: kt.Key, Val: kt.Val + 1})
	}
	transformKernel := func(c *ops.ColBatch, sel []int, dst []core.Tuple) []core.Tuple {
		ts, vals := c.Timestamps(), c.Int64s(0)
		for _, pos := range sel {
			kt := c.Rows[pos].(*keyedTuple)
			dst = append(dst, &keyedTuple{Base: core.NewBase(ts[pos]), Key: kt.Key, Val: vals[pos] + 1})
		}
		return dst
	}

	families := []struct {
		name string
		row  []ops.FusedStage
		vec  []ops.ColStage
	}{
		{"filter",
			[]ops.FusedStage{{Name: "even", Kind: ops.StageFilter, Pred: pred}},
			[]ops.ColStage{{Name: "even", Kind: ops.StageFilter, Schema: valSchema, Filter: evenKernel}}},
		{"map",
			[]ops.FusedStage{{Name: "inc", Kind: ops.StageMap, Map: transformMap}},
			[]ops.ColStage{{Name: "inc", Kind: ops.StageMap, Schema: valSchema, Map: transformKernel}}},
		{"chain",
			[]ops.FusedStage{
				{Name: "pass", Kind: ops.StageMap, Map: identityMap},
				{Name: "even", Kind: ops.StageFilter, Pred: pred}},
			[]ops.ColStage{
				{Name: "pass", Kind: ops.StageMap, Schema: valSchema, Map: keyedIdentityKernel},
				{Name: "even", Kind: ops.StageFilter, Schema: valSchema, Filter: evenKernel}}},
	}

	const total = 4096
	tuples := make([]core.Tuple, total)
	for i := range tuples {
		tuples[i] = &keyedTuple{Base: core.NewBase(int64(i / 8)), Key: "k" + strconv.Itoa(i%64), Val: int64(i)}
	}
	run := func(b *testing.B, batch int, mk func(in, out *ops.Stream) ops.Operator) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			in := ops.NewBatchedStream("in", total+1, batch)
			if err := in.SendRun(ctx, tuples); err != nil {
				b.Fatal(err)
			}
			in.CloseSend(ctx)
			out := ops.NewBatchedStream("out", total+1, batch)
			done := make(chan error, 1)
			op := mk(in, out)
			go func() { done <- op.Run(ctx) }()
			outs := 0
			for {
				batch, ok, err := out.RecvBatch(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				outs += len(batch)
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			if outs == 0 {
				b.Fatal("chain produced no output")
			}
		}
		b.ReportMetric(float64(b.N*total)/b.Elapsed().Seconds(), "tuples/s")
	}

	for _, batch := range []int{1, 64, 1024} {
		for _, fam := range families {
			b.Run(fmt.Sprintf("%s/row/batch-%d", fam.name, batch), func(b *testing.B) {
				run(b, batch, func(in, out *ops.Stream) ops.Operator {
					return ops.NewFusedChain(fam.name, in, out, fam.row, core.Noop{})
				})
			})
			b.Run(fmt.Sprintf("%s/vec/batch-%d", fam.name, batch), func(b *testing.B) {
				run(b, batch, func(in, out *ops.Stream) ops.Operator {
					return ops.NewColChain(fam.name, in, out, fam.vec, core.Noop{})
				})
			})
		}
	}
}

// statefulValSchema is the window state the stateful benchmark's kernels
// declare: only the value column the fold and residual actually read. The
// group key stays on the row tuples (the key kernel reads the meta column),
// so window state buffers one int64 per tuple — the same discipline the
// workload queries follow (Q1 buffers car/speed/pos, never a string).
var statefulValSchema = &ops.ColSchema{Fields: []ops.ColField{
	{Name: "val", Kind: ops.ColInt64, Int: func(t core.Tuple) int64 { return t.(*keyedTuple).Val }},
}}

const statefulFieldVal = 0

// statefulKeyKernel extracts group/routing keys from the meta column — the
// precomputed Key needs no typed column of its own.
func statefulKeyKernel(c *ops.ColBatch, sel []int, dst []string) []string {
	for _, pos := range sel {
		dst = append(dst, c.Rows[pos].(*keyedTuple).Key)
	}
	return dst
}

// colSumFold is the columnar twin of the stateful benchmark's row sum fold:
// one pass over the window segment's contiguous value column instead of one
// interface deref and type assertion per window tuple.
func colSumFold(seg *ops.ColSeg, start, end int64, key string) core.Tuple {
	var sum int64
	for _, v := range seg.Int64s(statefulFieldVal) {
		sum += v
	}
	return &keyedTuple{Base: core.NewBase(start), Key: key, Val: sum}
}

// evenSumProbe is the columnar residual of the stateful benchmark's join
// predicate (key equality enforced by the hash probe, parity of the pair sum
// as the residual). The parity test is symmetric, so one kernel serves both
// probe directions.
func evenSumProbe(t core.Tuple, cand *ops.ColSeg, sel []int, dst []int) []int {
	tv := t.(*keyedTuple).Val
	vals := cand.Int64s(statefulFieldVal)
	for _, pos := range sel {
		if (tv+vals[pos])%2 == 0 {
			dst = append(dst, pos)
		}
	}
	return dst
}

// runStatefulAggregate runs source -> keyed sliding-window sum -> sink over
// keys x steps tuples, returning source throughput and the sink count. The
// window slides (WS 64, WA 4), so every tuple is folded WS/WA times — the
// fold, not the transport, is what separates the row and columnar paths.
func runStatefulAggregate(b *testing.B, parallelism, batch int, vectorize bool) (float64, int) {
	const (
		keys  = 64
		steps = 400
	)
	keyNames := make([]string, keys)
	for k := range keyNames {
		keyNames[k] = "k" + strconv.Itoa(k)
	}
	qb := query.New("stateful-agg", query.WithInstrumenter(core.Noop{}), query.WithBatchSize(batch),
		query.WithVectorize(vectorize))
	src := qb.AddSource("src", func(ctx context.Context, emit func(core.Tuple) error) error {
		for ts := 0; ts < steps; ts++ {
			for k := 0; k < keys; k++ {
				if err := emit(&keyedTuple{Base: core.NewBase(int64(ts)), Key: keyNames[k], Val: int64(ts + k)}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	agg := qb.AddAggregate("agg", ops.AggregateSpec{
		WS: 64, WA: 4,
		Key: func(t core.Tuple) string { return t.(*keyedTuple).Key },
		Fold: func(w []core.Tuple, start, end int64, key string) core.Tuple {
			var sum int64
			for _, t := range w {
				sum += t.(*keyedTuple).Val
			}
			return &keyedTuple{Base: core.NewBase(start), Key: key, Val: sum}
		},
	}).ColumnarAgg(query.AggColSpec{Schema: statefulValSchema, Key: statefulKeyKernel, Fold: colSumFold}).
		Parallel(parallelism)
	var sinks int
	sink := qb.AddSink("sink", func(core.Tuple) error { sinks++; return nil })
	qb.Connect(src, agg)
	qb.Connect(agg, sink)
	q, err := qb.Build()
	if err != nil {
		b.Fatal(err)
	}
	begin := time.Now()
	if err := q.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(begin)
	if sinks == 0 {
		b.Fatal("no sink tuples")
	}
	return float64(keys*steps) / elapsed.Seconds(), sinks
}

// runStatefulJoin runs two sources -> keyed windowed join -> sink over
// 2 x keys x steps tuples, returning source throughput and the sink count.
// The predicate is key equality plus a parity residual over the pair sum, so
// the columnar path exercises both the hash probe and the residual kernel.
func runStatefulJoin(b *testing.B, parallelism, batch int, vectorize bool) (float64, int) {
	const (
		keys  = 64
		steps = 400
	)
	keyNames := make([]string, keys)
	for k := range keyNames {
		keyNames[k] = "k" + strconv.Itoa(k)
	}
	source := func(scale int64) func(ctx context.Context, emit func(core.Tuple) error) error {
		return func(ctx context.Context, emit func(core.Tuple) error) error {
			for ts := 0; ts < steps; ts++ {
				for k := 0; k < keys; k++ {
					if err := emit(&keyedTuple{Base: core.NewBase(int64(ts)), Key: keyNames[k], Val: scale*int64(ts) + int64(k)}); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	qb := query.New("stateful-join", query.WithInstrumenter(core.Noop{}), query.WithBatchSize(batch),
		query.WithVectorize(vectorize))
	srcL := qb.AddSource("left", source(1))
	srcR := qb.AddSource("right", source(2))
	join := qb.AddJoin("join", ops.JoinSpec{
		WS: 4,
		Predicate: func(l, r core.Tuple) bool {
			lt, rt := l.(*keyedTuple), r.(*keyedTuple)
			return lt.Key == rt.Key && (lt.Val+rt.Val)%2 == 0
		},
		Combine: func(l, r core.Tuple) core.Tuple {
			lt, rt := l.(*keyedTuple), r.(*keyedTuple)
			return &keyedTuple{Base: core.NewBase(0), Key: lt.Key, Val: lt.Val + rt.Val}
		},
		LeftKey:  func(t core.Tuple) string { return t.(*keyedTuple).Key },
		RightKey: func(t core.Tuple) string { return t.(*keyedTuple).Key },
	}).ColumnarJoin(query.JoinColSpec{
		Left: statefulValSchema, Right: statefulValSchema,
		LeftKey: statefulKeyKernel, RightKey: statefulKeyKernel,
		ResidualL: evenSumProbe, ResidualR: evenSumProbe,
	}).Parallel(parallelism)
	var sinks int
	sink := qb.AddSink("sink", func(core.Tuple) error { sinks++; return nil })
	qb.ConnectPort(srcL, join, query.PortLeft)
	qb.ConnectPort(srcR, join, query.PortRight)
	qb.Connect(join, sink)
	q, err := qb.Build()
	if err != nil {
		b.Fatal(err)
	}
	begin := time.Now()
	if err := q.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(begin)
	if sinks == 0 {
		b.Fatal("no sink tuples")
	}
	return float64(2*keys*steps) / elapsed.Seconds(), sinks
}

// BenchmarkStatefulKernels compares row closures against kernels on the
// stateful operators: the same keyed sliding-window aggregation (sum fold)
// and keyed windowed join (parity residual) running on ColAggregate/ColJoin
// with the spec derived from the row closures ("row", vectorization off)
// versus the declared typed-column fold/probe kernels ("vec"), serial and at
// Parallelism(4), batch 64 and 1024. The sink count is asserted identical
// across every cell of each pipeline (the count half of the byte-identity the equivalence tests check
// in full). Run with
//
//	go test -bench BenchmarkStatefulKernels -benchtime 1x
func BenchmarkStatefulKernels(b *testing.B) {
	pipelines := []struct {
		name   string
		tuples int
		run    func(b *testing.B, parallelism, batch int, vectorize bool) (float64, int)
	}{
		{"agg", 64 * 400, runStatefulAggregate},
		{"join", 2 * 64 * 400, runStatefulJoin},
	}
	for _, pl := range pipelines {
		refSinks := -1
		for _, vec := range []bool{false, true} {
			path := "row"
			if vec {
				path = "vec"
			}
			for _, p := range []int{1, 4} {
				for _, batch := range []int{64, 1024} {
					b.Run(fmt.Sprintf("%s/%s/parallelism-%d/batch-%d", pl.name, path, p, batch), func(b *testing.B) {
						var sinks int
						for i := 0; i < b.N; i++ {
							_, sinks = pl.run(b, p, batch, vec)
						}
						if refSinks == -1 {
							refSinks = sinks
						} else if sinks != refSinks {
							b.Fatalf("%s vec=%v parallelism %d batch %d produced %d sink tuples, reference %d",
								pl.name, vec, p, batch, sinks, refSinks)
						}
						// Averaged over every iteration — per-run rates on a
						// shared machine are too noisy to compare cells by.
						b.ReportMetric(float64(b.N*pl.tuples)/b.Elapsed().Seconds(), "tuples/s")
					})
				}
			}
		}
	}
}

// runScalingAggregate runs one keyed aggregation over keys x steps source
// tuples, returning the source throughput and the sink tuple count.
// foldCost scales the fold's CPU work: 0 selects the cheap payload-only
// fold (channel plumbing dominates; the batching benchmark), higher values
// add synthetic CPU work per window tuple (shard instances dominate; the
// shard-scaling benchmark).
func runScalingAggregate(b *testing.B, parallelism, batch, foldCost int) (float64, int) {
	const (
		keys  = 64
		steps = 200
	)
	qb := query.New("scaling", query.WithInstrumenter(core.Noop{}), query.WithBatchSize(batch))
	src := qb.AddSource("src", func(ctx context.Context, emit func(core.Tuple) error) error {
		for ts := 0; ts < steps; ts++ {
			for k := 0; k < keys; k++ {
				if err := emit(&ablTuple{Base: core.NewBase(int64(ts)), Val: int64(k)}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	agg := qb.AddAggregate("agg", ops.AggregateSpec{
		WS: 8, WA: 2,
		Key: func(t core.Tuple) string { return strconv.FormatInt(t.(*ablTuple).Val, 10) },
		Fold: func(w []core.Tuple, start, end int64, key string) core.Tuple {
			// foldCost > 0 makes the fold deliberately CPU-heavy: the shard
			// instances, not the channel plumbing, dominate so parallel
			// speedup is visible. foldCost == 0 keeps the fold trivial so
			// the transport overhead is what gets measured.
			acc := 0.0
			for _, t := range w {
				v := float64(t.(*ablTuple).Val)
				for i := 0; i < foldCost; i++ {
					acc += math.Sqrt(v + float64(i))
				}
				acc += v
			}
			return &ablTuple{Base: core.NewBase(start), Val: int64(acc)}
		},
	}).Parallel(parallelism)
	var sinks int
	sink := qb.AddSink("sink", func(core.Tuple) error { sinks++; return nil })
	qb.Connect(src, agg)
	qb.Connect(agg, sink)
	q, err := qb.Build()
	if err != nil {
		b.Fatal(err)
	}
	begin := time.Now()
	if err := q.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(begin)
	if sinks == 0 {
		b.Fatal("no sink tuples")
	}
	return float64(keys*steps) / elapsed.Seconds(), sinks
}

// BenchmarkCodec measures the serialisation cost of one tuple crossing an
// inter-process link (the dominant cost of Fig. 13's Q3/Q4 deployments).
func BenchmarkCodec(b *testing.B) {
	linearroad.RegisterWire()
	link := transport.NewLink(transport.WithBuffer(1 << 24))
	in := linearroad.NewPositionReport(1, 2, 3, 4)
	in.SetID(42)
	in.SetKind(core.KindSource)
	b.Run("encode-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := link.Enc.Encode(in); err != nil {
				b.Fatal(err)
			}
			if _, err := link.Dec.Decode(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraversalScaling measures FindProvenance against growing window
// sizes (the Fig. 14 trend: traversal time grows linearly with the
// contribution graph).
func BenchmarkTraversalScaling(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256, 1024} {
		root := aggregateGraph(n)
		b.Run(fmt.Sprintf("window-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := core.FindProvenance(root); len(got) != n {
					b.Fatal("wrong traversal")
				}
			}
		})
	}
}

// BenchmarkCodecComparison is the serialisation ablation: the gob codec
// (reflection, self-describing) versus the hand-rolled binary codec on the
// tuple types that dominate Fig. 13's network volume.
func BenchmarkCodecComparison(b *testing.B) {
	linearroad.RegisterWire()
	provenance.RegisterWire()
	report := linearroad.NewPositionReport(1, 2, 3, 4)
	report.SetID(42)
	report.SetKind(core.KindSource)
	rec := &provenance.Record{
		Ts:       9,
		SinkID:   7,
		OrigID:   42,
		OrigTs:   1,
		OrigKind: core.KindSource,
		Sink:     linearroad.NewPositionReport(9, 2, 0, 4),
		Orig:     report,
	}
	cases := []struct {
		name  string
		codec transport.Codec
		tuple core.Tuple
	}{
		{"gob/position-report", transport.GobCodec{}, report},
		{"binary/position-report", transport.BinaryCodec{}, report},
		{"gob/unfolded-record", transport.GobCodec{}, rec},
		{"binary/unfolded-record", transport.BinaryCodec{}, rec},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			pipe := transport.NewPipe(1 << 24)
			enc := c.codec.NewEncoder(pipe)
			dec := c.codec.NewDecoder(pipe)
			count := transport.NewCountingWriter(io.Discard)
			sizeEnc := c.codec.NewEncoder(count)
			if err := sizeEnc.Encode(c.tuple); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(count.Bytes()), "first-tuple-B")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enc.Encode(c.tuple); err != nil {
					b.Fatal(err)
				}
				if _, err := dec.Decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
