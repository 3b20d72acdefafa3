// Package integration cross-checks the two provenance techniques on
// randomly generated query topologies: for any deterministic query built
// from the standard operators, GeneaLog's pointer traversal and the
// baseline's annotation lists must attribute identical source sets to
// identical sink tuples.
package integration

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"genealog/internal/baseline"
	"genealog/internal/core"
	"genealog/internal/ops"
	"genealog/internal/provenance"
	"genealog/internal/query"
)

// TestMain runs every random topology with GL's strict single-writer checks
// on: a plan that lets two operators write one object's N, or a Send that
// would draw an ID, panics instead of silently losing provenance.
func TestMain(m *testing.M) {
	core.SetStrict(true)
	os.Exit(m.Run())
}

type rTuple struct {
	core.Base
	Key string
	Val int64
}

func rt(ts int64, key string, val int64) *rTuple {
	return &rTuple{Base: core.NewBase(ts), Key: key, Val: val}
}

func (t *rTuple) CloneTuple() core.Tuple {
	cp := *t
	cp.ResetProvenance()
	return &cp
}

func (t *rTuple) ApproxBytes() int { return 16 + len(t.Key) }

// segment is one randomly chosen building block of a pipeline.
type segment struct {
	kind int   // 0 filter, 1 map, 2 aggregate, 3 diamond, 4 self-join, 5 fork
	p1   int64 // parameter (modulus, window size, ...)
	p2   int64
}

// genSegments draws a random pipeline shape. The parameters are embedded in
// the spec so the two technique runs build *identical* queries.
func genSegments(rng *rand.Rand) []segment {
	n := 2 + rng.Intn(4)
	segs := make([]segment, n)
	for i := range segs {
		segs[i] = segment{
			kind: rng.Intn(5),
			p1:   2 + rng.Int63n(5),
			p2:   1 + rng.Int63n(4),
		}
	}
	return segs
}

// rKey is the partition key every pipeline tuple carries; the random maps
// preserve it, so stateless nodes can declare it (ShardKeyed) and let the
// planner hoist prefixes containing maps into the shard lanes.
func rKey(t core.Tuple) string { return t.(*rTuple).Key }

// buildPipeline appends the segments to b, returning the final node. The
// stateful segments (keyed aggregate, self-join) are shard-parallelised
// across parallelism instances (<= 1 keeps them serial).
func buildPipeline(b *query.Builder, src *query.Node, segs []segment, parallelism int) *query.Node {
	cur := src
	for i, s := range segs {
		id := strconv.Itoa(i)
		switch s.kind {
		case 0: // filter on value modulus
			mod := s.p1
			f := b.AddFilter("flt"+id, func(t core.Tuple) bool { return t.(*rTuple).Val%mod != 0 }).
				ShardKeyed(rKey)
			b.Connect(cur, f)
			cur = f
		case 1: // map transforming the value
			add := s.p1
			m := b.AddMap("map"+id, func(t core.Tuple, emit func(core.Tuple)) {
				v := t.(*rTuple)
				emit(rt(v.Timestamp(), v.Key, v.Val+add))
			}).ShardKeyed(rKey)
			b.Connect(cur, m)
			cur = m
		case 2: // keyed aggregate
			ws := s.p1 * 2
			wa := s.p2
			if wa > ws {
				wa = ws
			}
			a := b.AddAggregate("agg"+id, ops.AggregateSpec{
				WS:  ws,
				WA:  wa,
				Key: func(t core.Tuple) string { return t.(*rTuple).Key },
				Fold: func(w []core.Tuple, start, end int64, key string) core.Tuple {
					var sum int64
					for _, x := range w {
						sum += x.(*rTuple).Val
					}
					return rt(0, key, sum)
				},
			}).Parallel(parallelism)
			b.Connect(cur, a)
			cur = a
		case 3: // diamond: multiplex -> 2 filters -> union
			mod := s.p1
			x := b.AddMultiplex("mux" + id)
			f1 := b.AddFilter("dl"+id, func(t core.Tuple) bool { return t.(*rTuple).Val%mod == 0 })
			f2 := b.AddFilter("dr"+id, func(t core.Tuple) bool { return t.(*rTuple).Val%mod != 0 })
			u := b.AddUnion("uni" + id)
			b.Connect(cur, x)
			b.Connect(x, f1)
			b.Connect(x, f2)
			b.Connect(f1, u)
			b.Connect(f2, u)
			cur = u
		case 4: // self-join: multiplex -> join on key within a window
			ws := s.p1
			x := b.AddMultiplex("jmux" + id)
			j := b.AddJoin("join"+id, ops.JoinSpec{
				WS:       ws,
				LeftKey:  func(t core.Tuple) string { return t.(*rTuple).Key },
				RightKey: func(t core.Tuple) string { return t.(*rTuple).Key },
				Predicate: func(l, r core.Tuple) bool {
					return l.(*rTuple).Key == r.(*rTuple).Key && l.Timestamp() < r.Timestamp()
				},
				Combine: func(l, r core.Tuple) core.Tuple {
					return rt(0, l.(*rTuple).Key, l.(*rTuple).Val*1000+r.(*rTuple).Val)
				},
			}).Parallel(parallelism)
			b.Connect(cur, x)
			b.ConnectPort(x, j, query.PortLeft)
			b.ConnectPort(x, j, query.PortRight)
			cur = j
		case 5: // fork: multiplex -> two differently keyed aggregates -> union
			// Both aggregates buffer every tuple, each chaining N within its
			// own groups: the multiplex must hand them separate copies.
			x := b.AddMultiplex("fmux" + id)
			u := b.AddUnion("funi" + id)
			b.Connect(cur, x)
			keys := []func(core.Tuple) string{
				rKey,
				func(t core.Tuple) string { return strconv.FormatInt(t.(*rTuple).Val%2, 10) },
			}
			for k, key := range keys {
				a := b.AddAggregate(fmt.Sprintf("fagg%s-%d", id, k), ops.AggregateSpec{
					WS: s.p1, WA: s.p1, Key: key,
					Fold: func(w []core.Tuple, start, end int64, key string) core.Tuple {
						return rt(0, key, int64(len(w)))
					},
				}).Parallel(parallelism)
				b.Connect(x, a)
				b.Connect(a, u)
			}
			cur = u
		}
	}
	return cur
}

// sourceFor builds a deterministic source from the seed.
func sourceFor(seed int64, n int) ops.SourceFunc {
	return func(ctx context.Context, emit func(core.Tuple) error) error {
		rng := rand.New(rand.NewSource(seed))
		ts := int64(0)
		for i := 0; i < n; i++ {
			ts += rng.Int63n(3)
			k := "k" + strconv.Itoa(rng.Intn(3))
			if err := emit(rt(ts, k, rng.Int63n(50))); err != nil {
				return err
			}
		}
		return nil
	}
}

// canonicalize renders (sink, sources) pairs in a stable order.
func canonicalize(results []provenance.Result) []string {
	out := make([]string, 0, len(results))
	for _, r := range results {
		var srcs []string
		for _, s := range r.Sources {
			v := s.(*rTuple)
			srcs = append(srcs, fmt.Sprintf("%d/%s/%d", v.Timestamp(), v.Key, v.Val))
		}
		sort.Strings(srcs)
		sink := r.Sink.(*rTuple)
		out = append(out, fmt.Sprintf("%d/%s/%d<-%v", sink.Timestamp(), sink.Key, sink.Val, srcs))
	}
	sort.Strings(out)
	return out
}

func runGL(t *testing.T, seed int64, segs []segment, parallelism int, fusion bool) []provenance.Result {
	t.Helper()
	b := query.New("gl", query.WithInstrumenter(&core.Genealog{}), query.WithFusion(fusion))
	src := b.AddSource("src", sourceFor(seed, 150))
	last := buildPipeline(b, src, segs, parallelism)
	so, u := provenance.AddSU(b, "su", last, provenance.SUConfig{})
	b.Connect(so, b.AddSink("k", nil))
	var results []provenance.Result
	provenance.AddCollector(b, "prov", u, func(r provenance.Result) { results = append(results, r) })
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return results
}

func runBL(t *testing.T, seed int64, segs []segment, parallelism int, fusion bool) []provenance.Result {
	t.Helper()
	store := baseline.NewStore()
	instr := &baseline.Instrumenter{IDs: core.NewIDGen(1), Store: store}
	b := query.New("bl", query.WithInstrumenter(instr), query.WithFusion(fusion))
	src := b.AddSource("src", sourceFor(seed, 150))
	last := buildPipeline(b, src, segs, parallelism)
	var results []provenance.Result
	b.Connect(last, b.AddSink("k", func(tp core.Tuple) error {
		results = append(results, provenance.Result{
			Sink:    tp,
			Sources: baseline.Resolver{Store: store}.Resolve(tp),
		})
		return nil
	}))
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestRandomTopologyEquivalence generates random operator pipelines and
// checks GL and BL produce identical sink tuples with identical provenance
// sets.
func TestRandomTopologyEquivalence(t *testing.T) {
	interesting := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segs := genSegments(rng)
		gl := canonicalize(runGL(t, seed, segs, 1, true))
		bl := canonicalize(runBL(t, seed, segs, 1, true))
		if len(gl) != len(bl) {
			t.Fatalf("seed %d (%v): GL %d results, BL %d", seed, segs, len(gl), len(bl))
		}
		for i := range gl {
			if gl[i] != bl[i] {
				t.Fatalf("seed %d (%v): provenance mismatch:\nGL: %s\nBL: %s",
					seed, segs, gl[i], bl[i])
			}
		}
		if len(gl) > 0 {
			interesting++
		}
	}
	if interesting < 20 {
		t.Fatalf("only %d/40 random topologies produced sink tuples; generator too restrictive", interesting)
	}
}

// TestForkedAggregatesMatchBaseline: a multiplex feeding two aggregates that
// group the same tuples differently must clone under GL, or one aggregate's
// N chain overwrites the other's and their results' contribution sets go
// wrong. BL clones at every multiplex and is the reference.
func TestForkedAggregatesMatchBaseline(t *testing.T) {
	for seed := int64(400); seed < 406; seed++ {
		segs := []segment{{kind: 5, p1: 2 + seed%4}, {kind: 0, p1: 3}}
		for _, parallelism := range []int{1, 4} {
			gl := canonicalize(runGL(t, seed, segs, parallelism, true))
			bl := canonicalize(runBL(t, seed, segs, parallelism, true))
			if len(gl) == 0 || len(gl) != len(bl) {
				t.Fatalf("seed %d p%d: GL %d results, BL %d", seed, parallelism, len(gl), len(bl))
			}
			for i := range gl {
				if gl[i] != bl[i] {
					t.Fatalf("seed %d p%d: provenance mismatch:\nGL: %s\nBL: %s", seed, parallelism, gl[i], bl[i])
				}
			}
		}
	}
}

// runNP executes the pipeline without provenance and returns the sink
// tuples as provenance-free results.
func runNP(t *testing.T, seed int64, segs []segment, parallelism int, fusion bool) []provenance.Result {
	t.Helper()
	b := query.New("np", query.WithInstrumenter(core.Noop{}), query.WithFusion(fusion))
	src := b.AddSource("src", sourceFor(seed, 150))
	last := buildPipeline(b, src, segs, parallelism)
	var results []provenance.Result
	b.Connect(last, b.AddSink("k", func(tp core.Tuple) error {
		results = append(results, provenance.Result{Sink: tp})
		return nil
	}))
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestRandomTopologyParallelismEquivalence is the shard-parallelism
// property test: on random operator pipelines, execution with every keyed
// stateful operator at Parallelism(4) must produce the same sink tuples —
// and, under GL and BL, the same traversed provenance sets — as serial
// execution, in all three modes.
func TestRandomTopologyParallelismEquivalence(t *testing.T) {
	runs := map[string]func(t *testing.T, seed int64, segs []segment, parallelism int, fusion bool) []provenance.Result{
		"NP": runNP, "GL": runGL, "BL": runBL,
	}
	interesting := 0
	for seed := int64(200); seed < 230; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segs := genSegments(rng)
		// Chained self-joins multiply the output combinatorially (and with it
		// the runtime of six executions per seed); keep at most one per
		// pipeline, downgrading the rest to diamonds.
		joins := 0
		for i := range segs {
			if segs[i].kind == 4 {
				if joins++; joins > 1 {
					segs[i].kind = 3
				}
			}
		}
		for mode, run := range runs {
			serial := canonicalize(run(t, seed, segs, 1, true))
			parallel := canonicalize(run(t, seed, segs, 4, true))
			if len(serial) != len(parallel) {
				t.Fatalf("seed %d (%v) %s: serial %d results, parallel %d",
					seed, segs, mode, len(serial), len(parallel))
			}
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("seed %d (%v) %s: parallelism mismatch:\nserial:   %s\nparallel: %s",
						seed, segs, mode, serial[i], parallel[i])
				}
			}
			if mode == "NP" && len(serial) > 0 {
				interesting++
			}
		}
	}
	if interesting < 15 {
		t.Fatalf("only %d/30 random topologies produced sink tuples; generator too restrictive", interesting)
	}
}

// TestRandomTopologyDeterminism: the same random topology must produce an
// identical provenance report on every run.
func TestRandomTopologyDeterminism(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segs := genSegments(rng)
		first := canonicalize(runGL(t, seed, segs, 1, true))
		for rep := 0; rep < 3; rep++ {
			again := canonicalize(runGL(t, seed, segs, 1, true))
			if len(first) != len(again) {
				t.Fatalf("seed %d rep %d: %d vs %d results", seed, rep, len(first), len(again))
			}
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("seed %d rep %d: result %d differs", seed, rep, i)
				}
			}
		}
	}
}

// TestRandomTopologyFusionEquivalence is the physical planner's property
// test: on random operator pipelines, execution with operator fusion and
// shard-prefix replication must produce the same sink tuples — and, under
// GL and BL, the same traversed provenance sets — as the unfused plan, in
// all three modes, serial and at Parallelism(4) (where stateless prefixes
// hoist into the shard lanes via the declared ShardKey).
func TestRandomTopologyFusionEquivalence(t *testing.T) {
	runs := map[string]func(t *testing.T, seed int64, segs []segment, parallelism int, fusion bool) []provenance.Result{
		"NP": runNP, "GL": runGL, "BL": runBL,
	}
	interesting := 0
	for seed := int64(300); seed < 324; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segs := genSegments(rng)
		joins := 0
		for i := range segs {
			if segs[i].kind == 4 {
				if joins++; joins > 1 {
					segs[i].kind = 3
				}
			}
		}
		for mode, run := range runs {
			for _, parallelism := range []int{1, 4} {
				unfused := canonicalize(run(t, seed, segs, parallelism, false))
				fused := canonicalize(run(t, seed, segs, parallelism, true))
				if len(unfused) != len(fused) {
					t.Fatalf("seed %d (%v) %s p%d: unfused %d results, fused %d",
						seed, segs, mode, parallelism, len(unfused), len(fused))
				}
				for i := range unfused {
					if unfused[i] != fused[i] {
						t.Fatalf("seed %d (%v) %s p%d: fusion mismatch:\nunfused: %s\nfused:   %s",
							seed, segs, mode, parallelism, unfused[i], fused[i])
					}
				}
				if mode == "NP" && parallelism == 1 && len(unfused) > 0 {
					interesting++
				}
			}
		}
	}
	if interesting < 12 {
		t.Fatalf("only %d/24 random topologies produced sink tuples; generator too restrictive", interesting)
	}
}
