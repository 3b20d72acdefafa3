package ops

import (
	"testing"

	"genealog/internal/core"
)

func heartbeats(ts []core.Tuple) []int64 {
	var out []int64
	for _, t := range ts {
		if core.IsHeartbeat(t) {
			out = append(out, t.Timestamp())
		}
	}
	return out
}

func TestFilterEmitsHeartbeatsOnDrops(t *testing.T) {
	in := feed(vt(1, "k", 0), vt(2, "k", 1), vt(3, "k", 0), vt(3, "k", 1))
	out := NewStream("out", 16)
	f := NewFilter("f", in, out, func(tp core.Tuple) bool { return tp.(*vTuple).Val == 0 })
	runOps(t, f)
	all := drainAll(t, out)
	// Data at ts 1 and 3; drop at ts 2 emits a heartbeat; the second drop at
	// ts 3 does not advance the watermark (a ts-3 tuple was already sent).
	hbs := heartbeats(all)
	if len(hbs) != 1 || hbs[0] != 2 {
		t.Fatalf("heartbeats = %v, want [2]", hbs)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Timestamp() < all[i-1].Timestamp() {
			t.Fatal("heartbeats must keep the stream timestamp-sorted")
		}
	}
}

func TestFilterForwardsIncomingHeartbeats(t *testing.T) {
	in := feed(vt(1, "k", 0), core.NewHeartbeat(5))
	out := NewStream("out", 16)
	// Predicate would reject everything; heartbeats bypass it.
	f := NewFilter("f", in, out, func(tp core.Tuple) bool { return tp.(*vTuple).Val == 0 })
	runOps(t, f)
	hbs := heartbeats(drainAll(t, out))
	if len(hbs) != 1 || hbs[0] != 5 {
		t.Fatalf("heartbeats = %v, want [5]", hbs)
	}
}

func TestMapEmitsHeartbeatWhenDropping(t *testing.T) {
	in := feed(vt(1, "k", 0), vt(2, "k", 1))
	out := NewStream("out", 16)
	m := NewMap("m", in, out, func(tp core.Tuple, emit func(core.Tuple)) {
		if tp.(*vTuple).Val == 0 {
			emit(vt(tp.Timestamp(), "k", 10))
		}
	}, core.Noop{})
	runOps(t, m)
	all := drainAll(t, out)
	hbs := heartbeats(all)
	if len(hbs) != 1 || hbs[0] != 2 {
		t.Fatalf("heartbeats = %v, want [2]", hbs)
	}
	if len(all) != 2 {
		t.Fatalf("stream = %d elements, want tuple+heartbeat", len(all))
	}
}

func TestMapForwardsHeartbeatsWithoutCallingFn(t *testing.T) {
	in := feed(core.NewHeartbeat(9))
	out := NewStream("out", 16)
	m := NewMap("m", in, out, func(tp core.Tuple, emit func(core.Tuple)) {
		t.Error("user function must never see heartbeats")
	}, core.Noop{})
	runOps(t, m)
	hbs := heartbeats(drainAll(t, out))
	if len(hbs) != 1 || hbs[0] != 9 {
		t.Fatalf("heartbeats = %v, want [9]", hbs)
	}
}

func TestMultiplexForwardsHeartbeatsUncloned(t *testing.T) {
	hb := core.NewHeartbeat(4)
	in := feed(hb)
	o1, o2 := NewStream("o1", 4), NewStream("o2", 4)
	x := NewMultiplex("x", in, []*Stream{o1, o2}, &core.Genealog{}, true)
	runOps(t, x)
	g1, g2 := drainAll(t, o1), drainAll(t, o2)
	if !core.IsHeartbeat(g1[0]) || !core.IsHeartbeat(g2[0]) {
		t.Fatal("both branches must receive the heartbeat")
	}
	if g1[0].Timestamp() != 4 || g2[0].Timestamp() != 4 {
		t.Fatal("heartbeat timestamps must be preserved")
	}
	if g1[0] == g2[0] {
		t.Fatal("branches must not share one marker object (concurrent instrumentation)")
	}
	if core.MetaOf(g1[0]).Kind() != core.KindNone {
		t.Fatal("heartbeats carry no provenance")
	}
}

func TestAggregateAdvancesOnHeartbeat(t *testing.T) {
	// One tuple in window [0,10); a heartbeat at 25 must close it without
	// waiting for more data.
	in := feed(vt(1, "k", 1), core.NewHeartbeat(25))
	out := NewStream("out", 16)
	a := newAggregate("a", in, out, AggregateSpec{WS: 10, WA: 10, Fold: countFold}, core.Noop{})
	runOps(t, a)
	all := drainAll(t, out)
	var data []core.Tuple
	for _, x := range all {
		if !core.IsHeartbeat(x) {
			data = append(data, x)
		}
	}
	if len(data) != 1 || data[0].Timestamp() != 0 {
		t.Fatalf("windows = %v, want one at ts 0", timestamps(data))
	}
	// The aggregate must advertise progress past the closed window.
	hbs := heartbeats(all)
	if len(hbs) == 0 || hbs[len(hbs)-1] < 10 {
		t.Fatalf("heartbeats = %v, want progress >= 10", hbs)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Timestamp() < all[i-1].Timestamp() {
			t.Fatalf("aggregate output not sorted with heartbeats: %v", timestamps(all))
		}
	}
}

func TestAggregateHeartbeatBeforeFirstTupleIsConservative(t *testing.T) {
	// An early heartbeat must not promise more than the earliest window a
	// future tuple could still open.
	in := feed(core.NewHeartbeat(100), vt(101, "k", 1))
	out := NewStream("out", 64)
	a := newAggregate("a", in, out, AggregateSpec{WS: 10, WA: 5, Fold: countFold}, core.Noop{})
	runOps(t, a)
	all := drainAll(t, out)
	for i := 1; i < len(all); i++ {
		if all[i].Timestamp() < all[i-1].Timestamp() {
			t.Fatalf("order violated: %v", timestamps(all))
		}
	}
}

func TestJoinForwardsWatermarkBetweenMatches(t *testing.T) {
	// No pair ever matches; the join must still advertise progress.
	left := []core.Tuple{vt(0, "l", 1), vt(50, "l", 2)}
	right := []core.Tuple{vt(100, "r", 3)}
	spec := JoinSpec{
		WS:        5,
		Predicate: func(l, r core.Tuple) bool { return false },
		Combine:   func(l, r core.Tuple) core.Tuple { return nil },
	}
	l, r := feed(left...), feed(right...)
	out := NewStream("out", 64)
	j := newJoin("j", l, r, out, spec, core.Noop{})
	runOps(t, j)
	hbs := heartbeats(drainAll(t, out))
	if len(hbs) == 0 {
		t.Fatal("join must emit heartbeats while producing no matches")
	}
	if last := hbs[len(hbs)-1]; last != 100 {
		t.Fatalf("final watermark = %d, want 100", last)
	}
}

func TestJoinConsumesHeartbeatsFromInputs(t *testing.T) {
	left := []core.Tuple{vt(0, "l", 1), core.NewHeartbeat(500)}
	right := []core.Tuple{vt(1, "r", 2)}
	spec := JoinSpec{
		WS:        5,
		Predicate: func(l, r core.Tuple) bool { return true },
		Combine: func(l, r core.Tuple) core.Tuple {
			return vt(0, "o", l.(*vTuple).Val+r.(*vTuple).Val)
		},
	}
	l, r := feed(left...), feed(right...)
	out := NewStream("out", 64)
	j := newJoin("j", l, r, out, spec, core.Noop{})
	runOps(t, j)
	all := drainAll(t, out)
	var data []core.Tuple
	for _, x := range all {
		if !core.IsHeartbeat(x) {
			data = append(data, x)
		}
	}
	if len(data) != 1 || data[0].(*vTuple).Val != 3 {
		t.Fatalf("join data = %v", data)
	}
	hbs := heartbeats(all)
	if len(hbs) == 0 || hbs[len(hbs)-1] != 500 {
		t.Fatalf("heartbeats = %v, want final watermark 500", hbs)
	}
}

func TestUnionCoalescesHeartbeats(t *testing.T) {
	in1 := feed(core.NewHeartbeat(5), core.NewHeartbeat(10))
	in2 := feed(core.NewHeartbeat(5))
	out := NewStream("out", 16)
	u := NewUnion("u", []*Stream{in1, in2}, out)
	runOps(t, u)
	hbs := heartbeats(drainAll(t, out))
	if len(hbs) != 2 || hbs[0] != 5 || hbs[1] != 10 {
		t.Fatalf("heartbeats = %v, want [5 10]", hbs)
	}
}

func TestSinkIgnoresHeartbeats(t *testing.T) {
	in := feed(core.NewHeartbeat(5), vt(6, "k", 1))
	var n int
	sink := NewSink("k", in, func(core.Tuple) error { n++; return nil })
	var latencies int
	sink.OnLatency = func(core.Tuple, int64) { latencies++ }
	runOps(t, sink)
	if n != 1 {
		t.Fatalf("sink fn saw %d tuples, want 1", n)
	}
}
