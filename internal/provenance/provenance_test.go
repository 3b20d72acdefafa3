package provenance

import (
	"context"
	"sync"
	"testing"
	"time"

	"genealog/internal/core"
	"genealog/internal/ops"
	"genealog/internal/query"
	"genealog/internal/transport"
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

func mustAdd(t *testing.T, c *Collector, r *Record) {
	t.Helper()
	if err := c.Add(r); err != nil {
		t.Fatalf("Collector.Add: %v", err)
	}
}

func mustFlush(t *testing.T, c *Collector) {
	t.Helper()
	if err := c.Flush(); err != nil {
		t.Fatalf("Collector.Flush: %v", err)
	}
}

var _ transport.WireTuple = (*evTuple)(nil)

func (t *evTuple) MarshalWire(buf []byte) ([]byte, error) {
	return append(transport.AppendInt64(buf, t.Val), t.Key...), nil
}

func (t *evTuple) UnmarshalWire(data []byte) error {
	val, key, err := transport.ReadInt64(data)
	t.Val, t.Key = val, string(key)
	return err
}

var registerOnce sync.Once

// registerWire makes evTuple and the Record that nests it known to both
// codecs: links default to the binary one.
func registerWire() {
	registerOnce.Do(func() {
		transport.Register(&evTuple{})
		transport.RegisterBinary(190, func() transport.WireTuple { return &evTuple{} })
		RegisterWire()
	})
}

func countFold(w []core.Tuple, start, end int64, key string) core.Tuple {
	return ev(0, key, int64(len(w)))
}

func TestSUIntraProcessProvenance(t *testing.T) {
	b := query.New("su", query.WithInstrumenter(&core.Genealog{}))
	src := b.AddSource("src", func(ctx context.Context, emit func(core.Tuple) error) error {
		for i := 0; i < 12; i++ {
			if err := emit(ev(int64(i), "k", int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	agg := b.AddAggregate("agg", ops.AggregateSpec{WS: 4, WA: 4, Fold: countFold})
	b.Connect(src, agg)

	so, u := AddSU(b, "su", agg, SUConfig{})
	var sunk []core.Tuple
	k := b.AddSink("k", func(tp core.Tuple) error { sunk = append(sunk, tp); return nil })
	b.Connect(so, k)
	var results []Result
	AddCollector(b, "prov", u, func(r Result) { results = append(results, r) })

	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != 3 {
		t.Fatalf("sink got %d tuples, want 3 windows", len(sunk))
	}
	if len(results) != 3 {
		t.Fatalf("collector got %d results, want 3", len(results))
	}
	for i, r := range results {
		if len(r.Sources) != 4 {
			t.Fatalf("result %d has %d sources, want 4", i, len(r.Sources))
		}
		SortSourcesByTs(&r)
		for j, s := range r.Sources {
			wantTs := int64(i*4 + j)
			if s.Timestamp() != wantTs {
				t.Fatalf("result %d source %d ts = %d, want %d", i, j, s.Timestamp(), wantTs)
			}
			if core.MetaOf(s).Kind() != core.KindSource {
				t.Fatalf("originating tuple not SOURCE: %v", core.MetaOf(s).Kind())
			}
		}
	}
}

func TestSUTraversalObserver(t *testing.T) {
	b := query.New("su-obs", query.WithInstrumenter(&core.Genealog{}))
	src := b.AddSource("src", func(ctx context.Context, emit func(core.Tuple) error) error {
		for i := 0; i < 3; i++ {
			if err := emit(ev(int64(i), "k", 1)); err != nil {
				return err
			}
		}
		return nil
	})
	var calls, sizeSum int
	so, u := AddSU(b, "su", src, SUConfig{
		OnTraversal: func(d time.Duration, n int) {
			calls++
			sizeSum += n
			if d < 0 {
				t.Errorf("negative traversal duration %v", d)
			}
		},
	})
	b.Connect(so, b.AddSink("k", nil))
	AddCollector(b, "prov", u, nil)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("OnTraversal called %d times, want 3", calls)
	}
	if sizeSum != 3 {
		t.Fatalf("traversed graph sizes sum = %d, want 3 (one source each)", sizeSum)
	}
}

// TestRecordIsPlainData: an unfolded record carries no meta-attributes, so
// every GeneaLog hook skips it and a cloning Multiplex forwards it as it is
// (ops' TestCloningMultiplexForwardsMetaLess).
func TestRecordIsPlainData(t *testing.T) {
	var rec core.Tuple = &Record{Ts: 5, SinkID: 9, OrigID: 3, OrigTs: 1, OrigKind: core.KindSource, Sink: ev(5, "k", 0), Orig: ev(1, "s", 1)}
	if _, ok := rec.(core.Traceable); ok {
		t.Fatal("Record must not be core.Traceable")
	}
	if _, ok := rec.(core.Cloneable); ok {
		t.Fatal("Record must not be core.Cloneable")
	}
	if core.MetaOf(rec) != nil || rec.Timestamp() != 5 {
		t.Fatalf("MetaOf = %v, Timestamp = %d; want nil, 5", core.MetaOf(rec), rec.Timestamp())
	}
}

func TestCollectorDeduplicatesByOrigKey(t *testing.T) {
	var results []Result
	c := &Collector{OnResult: func(r Result) { results = append(results, r) }}
	sink := ev(10, "sink", 0)
	s1, s2 := ev(1, "a", 0), ev(2, "b", 0)
	mustAdd(t, c, &Record{Ts: 10, SinkID: 100, OrigID: 1, Sink: sink, Orig: s1})
	mustAdd(t, c, &Record{Ts: 10, SinkID: 100, OrigID: 2, Sink: sink, Orig: s2})
	mustAdd(t, c, &Record{Ts: 10, SinkID: 100, OrigID: 1, Sink: sink, Orig: s1}) // dup
	mustFlush(t, c)
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	if len(results[0].Sources) != 2 {
		t.Fatalf("got %d sources, want 2 (dedup)", len(results[0].Sources))
	}
}

func TestCollectorGroupsInterleavedSinks(t *testing.T) {
	var results []Result
	c := &Collector{OnResult: func(r Result) { results = append(results, r) }, Horizon: 100}
	sa, sb := ev(10, "a", 0), ev(11, "b", 0)
	mustAdd(t, c, &Record{Ts: 10, SinkID: 1, OrigID: 11, Sink: sa, Orig: ev(1, "x", 0)})
	mustAdd(t, c, &Record{Ts: 11, SinkID: 2, OrigID: 21, Sink: sb, Orig: ev(2, "y", 0)})
	mustAdd(t, c, &Record{Ts: 10, SinkID: 1, OrigID: 12, Sink: sa, Orig: ev(3, "z", 0)})
	mustFlush(t, c)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if len(results[0].Sources) != 2 || len(results[1].Sources) != 1 {
		t.Fatalf("grouping wrong: %v / %v", results[0], results[1])
	}
}

func TestCollectorHorizonFlushes(t *testing.T) {
	var results []Result
	c := &Collector{OnResult: func(r Result) { results = append(results, r) }, Horizon: 5}
	mustAdd(t, c, &Record{Ts: 0, SinkID: 1, OrigID: 1, Sink: ev(0, "a", 0), Orig: ev(0, "x", 0)})
	if len(results) != 0 {
		t.Fatal("group must not flush before the horizon")
	}
	// Watermark 10 passes 0+5: the first group must flush.
	mustAdd(t, c, &Record{Ts: 10, SinkID: 2, OrigID: 2, Sink: ev(10, "b", 0), Orig: ev(9, "y", 0)})
	if len(results) != 1 {
		t.Fatalf("got %d results after horizon, want 1", len(results))
	}
	mustFlush(t, c)
	if len(results) != 2 {
		t.Fatalf("got %d results after Flush, want 2", len(results))
	}
}

// TestMUInterProcessProvenance deploys the Fig. 7 topology in miniature:
//
//	SPE1: Source -> Filter -> SU -> Send(main) / Send(U1)
//	SPE2: Receive -> Aggregate -> SU -> Sink / Send(U2, derived)
//	SPE3: Receive(U1), Receive(U2) -> MU -> Collector
//
// and checks the collector reconstructs exactly the source tuples of every
// sink tuple's windows, across two serialisation boundaries.
func TestMUInterProcessProvenance(t *testing.T) {
	registerWire()

	mainLink := transport.NewLink()
	u1Link := transport.NewLink()
	u2Link := transport.NewLink()

	const ws = 4

	// SPE instance 1 (source instance).
	b1 := query.New("spe1", query.WithInstrumenter(&core.Genealog{IDs: core.NewIDGen(1)}))
	src := b1.AddSource("src", func(ctx context.Context, emit func(core.Tuple) error) error {
		for i := 0; i < 12; i++ {
			if err := emit(ev(int64(i), "k", int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	flt := b1.AddFilter("flt", func(tp core.Tuple) bool { return tp.(*evTuple).Val%2 == 0 })
	b1.Connect(src, flt)
	so1, u1 := AddSU(b1, "su1", flt, SUConfig{})
	transport.AddSend(b1, "send-main", so1, mainLink.Enc, mainLink.Closer)
	transport.AddSend(b1, "send-u1", u1, u1Link.Enc, u1Link.Closer)
	q1, err := b1.Build()
	if err != nil {
		t.Fatal(err)
	}

	// SPE instance 2 (sink instance).
	b2 := query.New("spe2", query.WithInstrumenter(&core.Genealog{IDs: core.NewIDGen(2)}))
	rcv := transport.AddReceive(b2, "recv-main", mainLink.Dec)
	agg := b2.AddAggregate("agg", ops.AggregateSpec{WS: ws, WA: ws, Fold: countFold})
	b2.Connect(rcv, agg)
	so2, u2 := AddSU(b2, "su2", agg, SUConfig{})
	var sunk []core.Tuple
	k := b2.AddSink("k", func(tp core.Tuple) error { sunk = append(sunk, tp); return nil })
	b2.Connect(so2, k)
	transport.AddSend(b2, "send-u2", u2, u2Link.Enc, u2Link.Closer)
	q2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}

	// SPE instance 3 (provenance instance).
	b3 := query.New("spe3", query.WithInstrumenter(&core.Genealog{IDs: core.NewIDGen(3)}))
	up := transport.AddReceive(b3, "recv-u1", u1Link.Dec)
	derived := transport.AddReceive(b3, "recv-u2", u2Link.Dec)
	mu := AddMU(b3, "mu", derived, []*query.Node{up}, MUConfig{Window: ws})
	var results []Result
	AddCollectorHorizon(b3, "prov", mu, ws, func(r Result) { results = append(results, r) })
	q3, err := b3.Build()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for _, q := range []*query.Query{q1, q2, q3} {
		wg.Add(1)
		go func(q *query.Query) {
			defer wg.Done()
			errs <- q.Run(ctx)
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Even values 0..10 filtered through; windows [0,4) {0,2}, [4,8) {4,6},
	// [8,12) {8,10}.
	if len(sunk) != 3 {
		t.Fatalf("sink got %d tuples, want 3", len(sunk))
	}
	if len(results) != 3 {
		t.Fatalf("collector got %d results, want 3", len(results))
	}
	want := [][]int64{{0, 2}, {4, 6}, {8, 10}}
	for i, r := range results {
		SortSourcesByTs(&r)
		if len(r.Sources) != len(want[i]) {
			t.Fatalf("result %d: %d sources, want %d", i, len(r.Sources), len(want[i]))
		}
		for j, s := range r.Sources {
			st, ok := s.(*evTuple)
			if !ok {
				t.Fatalf("result %d source %d: %T, want *evTuple", i, j, s)
			}
			if st.Timestamp() != want[i][j] || st.Val != want[i][j] {
				t.Fatalf("result %d source %d = ts %d val %d, want %d", i, j, st.Timestamp(), st.Val, want[i][j])
			}
			if core.MetaOf(s).Kind() != core.KindSource {
				t.Fatalf("MU output source kind = %v, want SOURCE", core.MetaOf(s).Kind())
			}
		}
	}
}
