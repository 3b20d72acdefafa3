package baseline

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"genealog/internal/core"
	"genealog/internal/ops"
	"genealog/internal/provenance"
	"genealog/internal/query"
)

type evTuple struct {
	core.Base
	Key string
	Val int64
}

func ev(ts int64, key string, val int64) *evTuple {
	return &evTuple{Base: core.NewBase(ts), Key: key, Val: val}
}

func (t *evTuple) CloneTuple() core.Tuple {
	cp := *t
	cp.ResetProvenance()
	return &cp
}

func (t *evTuple) ApproxBytes() int { return 16 + len(t.Key) + 8 }

func TestOnSourceAnnotatesAndStores(t *testing.T) {
	st := NewStore()
	ins := &Instrumenter{IDs: core.NewIDGen(1), Store: st}
	a := ev(1, "a", 0)
	ins.OnSource(a)
	m := core.MetaOf(a)
	if m.Kind() != core.KindSource || m.ID() == 0 {
		t.Fatalf("source not typed/ID'd: kind=%v id=%d", m.Kind(), m.ID())
	}
	if len(m.Annotation()) != 1 || m.Annotation()[0] != m.ID() {
		t.Fatalf("annotation = %v, want [%d]", m.Annotation(), m.ID())
	}
	if st.Len() != 1 {
		t.Fatalf("store len = %d, want 1", st.Len())
	}
	if st.ApproxBytes() != 25 {
		t.Fatalf("store bytes = %d, want 25", st.ApproxBytes())
	}
}

func TestOnSourceWithoutStore(t *testing.T) {
	ins := &Instrumenter{IDs: core.NewIDGen(1)}
	a := ev(1, "a", 0)
	ins.OnSource(a) // must not panic with nil store
	if core.MetaOf(a).ID() == 0 {
		t.Fatal("ID must still be assigned")
	}
}

func TestAnnotationPropagation(t *testing.T) {
	ins := &Instrumenter{IDs: core.NewIDGen(1), Store: NewStore()}
	s1, s2 := ev(1, "a", 0), ev(2, "b", 0)
	ins.OnSource(s1)
	ins.OnSource(s2)

	mapped := ev(1, "m", 0)
	ins.OnMap(mapped, s1)
	if got := core.MetaOf(mapped).Annotation(); len(got) != 1 || got[0] != core.MetaOf(s1).ID() {
		t.Fatalf("map annotation = %v", got)
	}
	// The copy must be independent of the original.
	core.MetaOf(mapped).Annotation()[0] = 999
	if core.MetaOf(s1).Annotation()[0] == 999 {
		t.Fatal("map annotation must be a copy")
	}
	ins.OnMap(mapped, s1) // restore

	joined := ev(2, "j", 0)
	ins.OnJoin(joined, s2, s1)
	ann := core.MetaOf(joined).Annotation()
	if len(ann) != 2 {
		t.Fatalf("join annotation = %v, want two IDs", ann)
	}

	agg := ev(0, "agg", 0)
	ins.OnAggregateEmit(agg, []core.Tuple{s1, s2, joined})
	ann = core.MetaOf(agg).Annotation()
	if len(ann) != 2 { // s1, s2 ded-duplicated with joined's {s2,s1}
		t.Fatalf("aggregate annotation = %v, want 2 unique IDs", ann)
	}
}

func TestMergeAnnotationsOrderAndDedup(t *testing.T) {
	got := mergeAnnotations([]uint64{3, 1}, []uint64{1, 2}, nil, []uint64{3})
	want := []uint64{3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v, want %v", got, want)
		}
	}
}

func TestResolver(t *testing.T) {
	st := NewStore()
	ins := &Instrumenter{IDs: core.NewIDGen(1), Store: st}
	s1, s2 := ev(1, "a", 0), ev(2, "b", 0)
	ins.OnSource(s1)
	ins.OnSource(s2)
	sink := ev(0, "sink", 0)
	ins.OnAggregateEmit(sink, []core.Tuple{s1, s2})
	got := Resolver{Store: st}.Resolve(sink)
	if len(got) != 2 {
		t.Fatalf("resolved %d tuples, want 2", len(got))
	}
	if got[0] != core.Tuple(s1) || got[1] != core.Tuple(s2) {
		t.Fatal("resolver must return the stored source tuples")
	}
}

// TestBaselineAlwaysClones: the textbook baseline copies at every Multiplex,
// whatever the planner counts downstream.
func TestBaselineAlwaysClones(t *testing.T) {
	in := &Instrumenter{IDs: core.NewIDGen(1)}
	for writers := 0; writers <= 2; writers++ {
		if !in.NeedsMultiplexClone(writers) {
			t.Fatalf("BL shares an object with %d writers downstream", writers)
		}
	}
}

func TestStoreDuplicatePutIgnored(t *testing.T) {
	st := NewStore()
	a := ev(1, "a", 0)
	st.Put(7, a)
	st.Put(7, a)
	if st.Len() != 1 || st.ApproxBytes() != 25 {
		t.Fatalf("duplicate put must be ignored: len=%d bytes=%d", st.Len(), st.ApproxBytes())
	}
}

func TestStoreDefaultSizeEstimate(t *testing.T) {
	st := NewStore()
	st.Put(1, &struct{ core.Base }{core.NewBase(1)})
	if st.ApproxBytes() != defaultTupleBytes {
		t.Fatalf("bytes = %d, want %d", st.ApproxBytes(), defaultTupleBytes)
	}
}

// buildPipeline constructs the same windowed query under a given
// instrumenter and returns the per-sink-tuple provenance sets as canonical
// strings, resolved through the given resolver factory after the run.
func buildPipeline(t *testing.T, instr core.Instrumenter, resolve func(core.Tuple) []core.Tuple) []string {
	t.Helper()
	b := query.New("pipe", query.WithInstrumenter(instr))
	src := b.AddSource("src", func(ctx context.Context, emit func(core.Tuple) error) error {
		for i := 0; i < 60; i++ {
			if err := emit(ev(int64(i), fmt.Sprintf("g%d", i%3), int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	flt := b.AddFilter("flt", func(tp core.Tuple) bool { return tp.(*evTuple).Val%5 != 0 })
	agg := b.AddAggregate("agg", ops.AggregateSpec{
		WS: 10, WA: 5,
		Key:  func(tp core.Tuple) string { return tp.(*evTuple).Key },
		Fold: func(w []core.Tuple, start, end int64, key string) core.Tuple { return ev(0, key, int64(len(w))) },
	})
	var sunk []core.Tuple
	k := b.AddSink("k", func(tp core.Tuple) error { sunk = append(sunk, tp); return nil })
	b.Connect(src, flt)
	b.Connect(flt, agg)
	b.Connect(agg, k)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, s := range sunk {
		srcs := resolve(s)
		var vals []int64
		for _, x := range srcs {
			vals = append(vals, x.(*evTuple).Val)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		out = append(out, fmt.Sprintf("%d/%s:%v", s.Timestamp(), s.(*evTuple).Key, vals))
	}
	return out
}

// TestBaselineMatchesGenealog is the cross-technique equivalence check the
// paper relies on implicitly: BL and GL must attribute identical source sets
// to identical sink tuples.
func TestBaselineMatchesGenealog(t *testing.T) {
	st := NewStore()
	bl := buildPipeline(t, &Instrumenter{IDs: core.NewIDGen(1), Store: st},
		Resolver{Store: st}.Resolve)
	gl := buildPipeline(t, &core.Genealog{}, core.GenealogResolver{}.Resolve)
	if len(bl) == 0 {
		t.Fatal("pipeline produced no sink tuples")
	}
	if len(bl) != len(gl) {
		t.Fatalf("BL %d sink tuples, GL %d", len(bl), len(gl))
	}
	for i := range bl {
		if bl[i] != gl[i] {
			t.Fatalf("provenance mismatch at %d:\n BL: %s\n GL: %s", i, bl[i], gl[i])
		}
	}
}

// TestBaselineStoreGrowsWithStream demonstrates BL's C2 violation: the store
// retains every source tuple regardless of contribution.
func TestBaselineStoreGrowsWithStream(t *testing.T) {
	st := NewStore()
	instr := &Instrumenter{IDs: core.NewIDGen(1), Store: st}
	b := query.New("grow", query.WithInstrumenter(instr))
	src := b.AddSource("src", func(ctx context.Context, emit func(core.Tuple) error) error {
		for i := 0; i < 1000; i++ {
			if err := emit(ev(int64(i), "k", int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	// A filter that drops everything: no sink tuple will ever reference the
	// sources, yet BL keeps them all.
	flt := b.AddFilter("flt", func(core.Tuple) bool { return false })
	k := b.AddSink("k", nil)
	b.Connect(src, flt)
	b.Connect(flt, k)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1000 {
		t.Fatalf("store len = %d, want all 1000 source tuples", st.Len())
	}
}

// TestRecordStreamCompatibility checks BL tuples flow through the provenance
// package's collector machinery (used by the harness for symmetric output).
func TestRecordStreamCompatibility(t *testing.T) {
	st := NewStore()
	ins := &Instrumenter{IDs: core.NewIDGen(1), Store: st}
	s := ev(1, "a", 0)
	ins.OnSource(s)
	sink := ev(5, "sink", 0)
	ins.OnAggregateEmit(sink, []core.Tuple{s})
	var results []provenance.Result
	c := &provenance.Collector{OnResult: func(r provenance.Result) { results = append(results, r) }}
	for _, src := range (Resolver{Store: st}).Resolve(sink) {
		err := c.Add(&provenance.Record{
			Ts:     sink.Timestamp(),
			SinkID: core.MetaOf(sink).ID(),
			Sink:   sink,
			Orig:   src,
		})
		if err != nil {
			t.Fatalf("Collector.Add: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Collector.Flush: %v", err)
	}
	if len(results) != 1 || len(results[0].Sources) != 1 {
		t.Fatalf("collector results = %v", results)
	}
}
