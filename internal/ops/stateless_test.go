package ops

import (
	"context"
	"errors"
	"testing"

	"genealog/internal/core"
)

func TestSourceStampsStimulusAndInstruments(t *testing.T) {
	out := NewStream("out", 8)
	var clock int64
	src := NewSource("s", SliceSource(seq(0, 1, 3, "k")), out, &core.Genealog{})
	src.Now = func() int64 { clock++; return clock }
	runOps(t, src)
	got := drain(t, out)
	if len(got) != 3 {
		t.Fatalf("got %d tuples, want 3", len(got))
	}
	for i, tup := range got {
		m := core.MetaOf(tup)
		if m.Kind() != core.KindSource {
			t.Fatalf("tuple %d kind = %v, want SOURCE", i, m.Kind())
		}
		if m.Stimulus() != int64(i+1) {
			t.Fatalf("tuple %d stimulus = %d, want %d", i, m.Stimulus(), i+1)
		}
	}
}

func TestSourceOnEmitHook(t *testing.T) {
	out := NewStream("out", 8)
	src := NewSource("s", SliceSource(seq(0, 1, 5, "k")), out, core.Noop{})
	var n int
	src.OnEmit = func(core.Tuple) { n++ }
	runOps(t, src)
	drain(t, out)
	if n != 5 {
		t.Fatalf("OnEmit called %d times, want 5", n)
	}
}

func TestSourcePropagatesGeneratorError(t *testing.T) {
	out := NewStream("out", 1)
	boom := errors.New("boom")
	src := NewSource("s", func(ctx context.Context, emit func(core.Tuple) error) error {
		return boom
	}, out, core.Noop{})
	if err := src.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestSourceRateLimiting(t *testing.T) {
	out := NewStream("out", 64)
	src := NewSource("s", SliceSource(seq(0, 1, 30, "k")), out, core.Noop{})
	src.Rate = 1e6 // fast enough for tests, still exercises the pacer
	runOps(t, src)
	if got := len(drain(t, out)); got != 30 {
		t.Fatalf("got %d tuples, want 30", got)
	}
}

func TestSinkLatencyFromStimulus(t *testing.T) {
	a := vt(1, "k", 0)
	a.SetStimulus(100)
	in := feed(a)
	sink := NewSink("k", in, nil)
	sink.Now = func() int64 { return 250 }
	var lat int64
	sink.OnLatency = func(_ core.Tuple, ns int64) { lat = ns }
	runOps(t, sink)
	if lat != 150 {
		t.Fatalf("latency = %d, want 150", lat)
	}
}

func TestSinkPropagatesFnError(t *testing.T) {
	in := feed(vt(1, "k", 0))
	boom := errors.New("boom")
	sink := NewSink("k", in, func(core.Tuple) error { return boom })
	if err := sink.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestMapOneToMany(t *testing.T) {
	in := feed(vt(1, "k", 10), vt(2, "k", 20))
	out := NewStream("out", 8)
	m := NewMap("m", in, out, func(tp core.Tuple, emit func(core.Tuple)) {
		v := tp.(*vTuple)
		emit(vt(v.Timestamp(), v.Key, v.Val))
		emit(vt(v.Timestamp(), v.Key, v.Val+1))
	}, &core.Genealog{})
	runOps(t, m)
	got := drain(t, out)
	if len(got) != 4 {
		t.Fatalf("got %d tuples, want 4", len(got))
	}
	for _, tup := range got {
		m := core.MetaOf(tup)
		if m.Kind() != core.KindMap || m.U1() == nil {
			t.Fatalf("map output not instrumented: kind=%v u1=%v", m.Kind(), m.U1())
		}
	}
}

func TestMapDropsTuples(t *testing.T) {
	in := feed(seq(0, 1, 4, "k")...)
	out := NewStream("out", 8)
	m := NewMap("m", in, out, func(tp core.Tuple, emit func(core.Tuple)) {
		if tp.(*vTuple).Val%2 == 0 {
			emit(vt(tp.Timestamp(), "k", tp.(*vTuple).Val))
		}
	}, core.Noop{})
	runOps(t, m)
	if got := len(drain(t, out)); got != 2 {
		t.Fatalf("got %d tuples, want 2", got)
	}
}

func TestMapPropagatesStimulus(t *testing.T) {
	a := vt(1, "k", 0)
	a.SetStimulus(42)
	in := feed(a)
	out := NewStream("out", 8)
	m := NewMap("m", in, out, func(tp core.Tuple, emit func(core.Tuple)) {
		emit(vt(tp.Timestamp(), "k", 0))
	}, core.Noop{})
	runOps(t, m)
	got := drain(t, out)
	if s := core.MetaOf(got[0]).Stimulus(); s != 42 {
		t.Fatalf("stimulus = %d, want 42", s)
	}
}

func TestFilterForwardsSameObject(t *testing.T) {
	a, b := vt(1, "k", 0), vt(2, "k", 5)
	in := feed(a, b)
	out := NewStream("out", 8)
	f := NewFilter("f", in, out, func(tp core.Tuple) bool { return tp.(*vTuple).Val == 0 })
	runOps(t, f)
	got := drain(t, out)
	if len(got) != 1 || got[0] != core.Tuple(a) {
		t.Fatalf("filter must forward the identical object, got %v", got)
	}
}

func TestMultiplexClonesUnderGL(t *testing.T) {
	a := vt(1, "k", 7)
	a.SetKind(core.KindSource)
	in := feed(a)
	o1, o2 := NewStream("o1", 8), NewStream("o2", 8)
	x := NewMultiplex("x", in, []*Stream{o1, o2}, &core.Genealog{}, true)
	runOps(t, x)
	g1, g2 := drain(t, o1), drain(t, o2)
	if len(g1) != 1 || len(g2) != 1 {
		t.Fatal("each branch must receive one tuple")
	}
	if g1[0] == core.Tuple(a) || g2[0] == core.Tuple(a) || g1[0] == g2[0] {
		t.Fatal("GL branches must be distinct clones")
	}
	for _, tup := range []core.Tuple{g1[0], g2[0]} {
		m := core.MetaOf(tup)
		if m.Kind() != core.KindMultiplex || m.U1() != core.Tuple(a) {
			t.Fatalf("clone not linked: kind=%v u1=%v", m.Kind(), m.U1())
		}
		if tup.(*vTuple).Val != 7 {
			t.Fatal("clone must keep payload")
		}
	}
}

func TestMultiplexForwardsUnderNP(t *testing.T) {
	a := vt(1, "k", 7)
	in := feed(a)
	o1, o2 := NewStream("o1", 8), NewStream("o2", 8)
	x := NewMultiplex("x", in, []*Stream{o1, o2}, core.Noop{}, false)
	runOps(t, x)
	g1, g2 := drain(t, o1), drain(t, o2)
	if g1[0] != core.Tuple(a) || g2[0] != core.Tuple(a) {
		t.Fatal("NP multiplex must forward the same object")
	}
	if a.Kind() != core.KindNone || a.U1() != nil {
		t.Fatal("a sharing multiplex must leave the tuple's provenance untouched")
	}
}

func TestMultiplexRejectsNonCloneable(t *testing.T) {
	in := feed(&notCloneable{Base: core.NewBase(1)})
	o1 := NewStream("o1", 8)
	x := NewMultiplex("x", in, []*Stream{o1}, &core.Genealog{}, true)
	err := x.Run(context.Background())
	if !errors.Is(err, ErrNotCloneable) {
		t.Fatalf("err = %v, want ErrNotCloneable", err)
	}
}

func TestUnionMergesByTimestamp(t *testing.T) {
	in1 := feed(vt(1, "a", 0), vt(4, "a", 0), vt(7, "a", 0))
	in2 := feed(vt(2, "b", 0), vt(3, "b", 0), vt(9, "b", 0))
	out := NewStream("out", 16)
	u := NewUnion("u", []*Stream{in1, in2}, out)
	runOps(t, u)
	got := timestamps(drain(t, out))
	if !int64sEqual(got, []int64{1, 2, 3, 4, 7, 9}) {
		t.Fatalf("union order = %v", got)
	}
}

func TestUnionTieBreaksByInputIndex(t *testing.T) {
	a, b := vt(5, "a", 0), vt(5, "b", 0)
	in1, in2 := feed(a), feed(b)
	out := NewStream("out", 8)
	u := NewUnion("u", []*Stream{in1, in2}, out)
	runOps(t, u)
	got := drain(t, out)
	if got[0] != core.Tuple(a) || got[1] != core.Tuple(b) {
		t.Fatal("ties must resolve to the lower input index")
	}
}

func TestUnionSingleInput(t *testing.T) {
	in := feed(seq(0, 1, 5, "k")...)
	out := NewStream("out", 8)
	u := NewUnion("u", []*Stream{in}, out)
	runOps(t, u)
	if got := len(drain(t, out)); got != 5 {
		t.Fatalf("got %d tuples, want 5", got)
	}
}

func TestStreamSendRecvCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewStream("s", 1)
	if err := s.Send(context.Background(), vt(0, "k", 0)); err != nil {
		t.Fatal(err) // fill to capacity so the next Send must block
	}
	if err := s.Send(ctx, vt(1, "k", 0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("send err = %v, want context.Canceled", err)
	}
	empty := NewStream("empty", 1)
	if _, _, err := empty.Recv(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("recv err = %v, want context.Canceled", err)
	}
}
