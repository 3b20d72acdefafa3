package ops

import (
	"context"
	"strings"
	"testing"

	"genealog/internal/core"
)

// chainStages is the three-stage chain shared by the fused-vs-unfused
// tests: a doubling Map, an odd-dropping Filter and an incrementing Map.
func chainStages() []FusedStage {
	return []FusedStage{
		{Name: "double", Kind: StageMap, Map: func(t core.Tuple, emit func(core.Tuple)) {
			emit(vt(t.Timestamp(), t.(*vTuple).Key, t.(*vTuple).Val*2))
		}},
		{Name: "keep-even", Kind: StageFilter, Pred: func(t core.Tuple) bool {
			return t.(*vTuple).Val%4 == 0
		}},
		{Name: "inc", Kind: StageMap, Map: func(t core.Tuple, emit func(core.Tuple)) {
			emit(vt(t.Timestamp(), t.(*vTuple).Key, t.(*vTuple).Val+1))
		}},
	}
}

// runUnfusedChain runs the stages as standalone Map/Filter operators.
func runUnfusedChain(t *testing.T, in *Stream, instr core.Instrumenter) []core.Tuple {
	t.Helper()
	stages := chainStages()
	s1 := NewStream("s1", 0)
	s2 := NewStream("s2", 0)
	out := NewStream("out", 0)
	m1 := NewMap("double", in, s1, stages[0].Map, instr)
	f := NewFilter("keep-even", s1, s2, stages[1].Pred)
	m2 := NewMap("inc", s2, out, stages[2].Map, instr)
	done := make(chan []core.Tuple)
	go func() { done <- drainAll(t, out) }()
	runOps(t, m1, f, m2)
	return <-done
}

// runFusedChain runs the same stages as one FusedChain.
func runFusedChain(t *testing.T, in *Stream, instr core.Instrumenter) []core.Tuple {
	t.Helper()
	out := NewStream("out", 0)
	fc := NewFusedChain("fused", in, out, chainStages(), instr)
	if fc.Stages() != 3 {
		t.Fatalf("Stages() = %d, want 3", fc.Stages())
	}
	done := make(chan []core.Tuple)
	go func() { done <- drainAll(t, out) }()
	runOps(t, fc)
	return <-done
}

func chainInput() []core.Tuple {
	var in []core.Tuple
	for i := 0; i < 40; i++ {
		in = append(in, vt(int64(i/2), "k", int64(i)))
	}
	return in
}

// dataOf filters out watermark heartbeats.
func dataOf(ts []core.Tuple) []*vTuple {
	var out []*vTuple
	for _, t := range ts {
		if !core.IsHeartbeat(t) {
			out = append(out, t.(*vTuple))
		}
	}
	return out
}

// TestFusedChainMatchesUnfused: the fused chain must produce the same data
// tuples — payloads and contribution graphs — as the standalone operators,
// under NP and GL.
func TestFusedChainMatchesUnfused(t *testing.T) {
	for _, mode := range []string{"NP", "GL"} {
		t.Run(mode, func(t *testing.T) {
			var unfused, fused []core.Tuple
			if mode == "GL" {
				unfused = runUnfusedChain(t, feed(chainInput()...), &core.Genealog{})
				fused = runFusedChain(t, feed(chainInput()...), &core.Genealog{})
			} else {
				unfused = runUnfusedChain(t, feed(chainInput()...), core.Noop{})
				fused = runFusedChain(t, feed(chainInput()...), core.Noop{})
			}
			du, df := dataOf(unfused), dataOf(fused)
			if len(du) == 0 || len(du) != len(df) {
				t.Fatalf("data tuples: unfused %d, fused %d", len(du), len(df))
			}
			for i := range du {
				if du[i].Timestamp() != df[i].Timestamp() || du[i].Val != df[i].Val {
					t.Fatalf("tuple %d differs: unfused %v, fused %v", i, du[i], df[i])
				}
				if mode == "GL" {
					pu, pf := core.FindProvenance(du[i]), core.FindProvenance(df[i])
					if len(pu) != 1 || len(pf) != 1 {
						t.Fatalf("tuple %d: provenance sizes unfused %d, fused %d (want 1)", i, len(pu), len(pf))
					}
					if pu[0].(*vTuple).Val != pf[0].(*vTuple).Val {
						t.Fatalf("tuple %d: provenance differs", i)
					}
					// Fusion must preserve the per-stage MAP links, not
					// shortcut them: two Map stages means the output's U1
					// points at the intermediate, which points at the input.
					m := core.MetaOf(df[i])
					if m.Kind() != core.KindMap {
						t.Fatalf("tuple %d: kind = %v, want MAP", i, m.Kind())
					}
					mid := core.MetaOf(m.U1())
					if mid == nil || mid.Kind() != core.KindMap {
						t.Fatalf("tuple %d: intermediate stage link missing", i)
					}
				}
			}
		})
	}
}

// TestFusedChainWatermarkOnDrop: tuples dropped mid-chain must still
// advertise watermark progress downstream, once per distinct event time.
func TestFusedChainWatermarkOnDrop(t *testing.T) {
	out := NewStream("out", 0)
	fc := NewFusedChain("fused", feed(vt(1, "k", 1), vt(1, "k", 3), vt(2, "k", 5), vt(3, "k", 4)), out,
		[]FusedStage{{Name: "drop-odd", Kind: StageFilter, Pred: func(t core.Tuple) bool {
			return t.(*vTuple).Val%2 == 0
		}}}, core.Noop{})
	done := make(chan []core.Tuple)
	go func() { done <- drainAll(t, out) }()
	runOps(t, fc)
	got := <-done
	// ts1 x2 and ts2 dropped -> heartbeat(1), heartbeat(2); ts3 forwarded.
	want := []struct {
		ts int64
		hb bool
	}{{1, true}, {2, true}, {3, false}}
	if len(got) != len(want) {
		t.Fatalf("got %d outputs (%v), want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if got[i].Timestamp() != w.ts || core.IsHeartbeat(got[i]) != w.hb {
			t.Fatalf("output %d = %v (hb=%v), want ts %d hb=%v", i, got[i], core.IsHeartbeat(got[i]), w.ts, w.hb)
		}
	}
}

// TestFusedChainMultiplexStage: a cloning pass-through Multiplex stage must
// clone and link, and the pass stage a sharing Multiplex becomes must forward
// the same object, exactly like the standalone operator.
func TestFusedChainMultiplexStage(t *testing.T) {
	run := func(kind StageKind, instr core.Instrumenter) (in, out core.Tuple) {
		src := vt(1, "k", 7)
		o := NewStream("out", 0)
		fc := NewFusedChain("fused", feed(src), o,
			[]FusedStage{{Name: "mux", Kind: kind}}, instr)
		done := make(chan []core.Tuple)
		go func() { done <- drain(t, o) }()
		runOps(t, fc)
		got := <-done
		if len(got) != 1 {
			t.Fatalf("got %d tuples, want 1", len(got))
		}
		return src, got[0]
	}
	in, out := run(StagePass, &core.Genealog{})
	if in != out {
		t.Fatal("a sharing multiplex stage must forward the same tuple object")
	}
	in, out = run(StageMultiplex, &core.Genealog{})
	if in == out {
		t.Fatal("GL multiplex stage must clone")
	}
	m := core.MetaOf(out)
	if m.Kind() != core.KindMultiplex || m.U1() != in {
		t.Fatal("GL multiplex stage must link the clone to the original")
	}
}

// TestFusedChainNotCloneable: a cloning multiplex stage must fail on tuples
// without CloneTuple, like the standalone Multiplex.
func TestFusedChainNotCloneable(t *testing.T) {
	o := NewStream("out", 0)
	fc := NewFusedChain("fused", feed(&notCloneable{Base: core.NewBase(1)}), o,
		[]FusedStage{{Name: "mux", Kind: StageMultiplex}}, &core.Genealog{})
	go func() {
		for range o.ch {
		}
	}()
	err := fc.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "does not implement core.Cloneable") {
		t.Fatalf("Run err = %v, want ErrNotCloneable", err)
	}
}

// plainTuple carries no meta-attributes.
type plainTuple struct{ ts int64 }

func (p *plainTuple) Timestamp() int64 { return p.ts }

// TestCloningMultiplexForwardsMetaLess: a tuple without meta-attributes has
// no N to keep single-writer, so a cloning Multiplex, standalone or fused,
// forwards the object itself to every branch rather than failing.
func TestCloningMultiplexForwardsMetaLess(t *testing.T) {
	src := &plainTuple{ts: 1}
	o1, o2 := NewStream("o1", 8), NewStream("o2", 8)
	runOps(t, NewMultiplex("x", feed(src), []*Stream{o1, o2}, &core.Genealog{}, true))
	if g1, g2 := drain(t, o1), drain(t, o2); len(g1) != 1 || g1[0] != core.Tuple(src) || len(g2) != 1 || g2[0] != core.Tuple(src) {
		t.Fatalf("Multiplex forwarded %v and %v, want the tuple itself", g1, g2)
	}
	o := NewStream("out", 0)
	fc := NewFusedChain("fused", feed(src), o, []FusedStage{{Name: "mux", Kind: StageMultiplex}}, &core.Genealog{})
	done := make(chan []core.Tuple)
	go func() { done <- drain(t, o) }()
	runOps(t, fc)
	if got := <-done; len(got) != 1 || got[0] != core.Tuple(src) {
		t.Fatalf("fused Multiplex stage forwarded %v, want the tuple itself", got)
	}
}

// TestFusedChainMultiEmitAndPass: Map stages emitting several tuples push
// each through the rest of the chain; pass stages are transparent.
func TestFusedChainMultiEmitAndPass(t *testing.T) {
	o := NewStream("out", 0)
	fc := NewFusedChain("fused", feed(vt(1, "k", 1), vt(2, "k", 2)), o,
		[]FusedStage{
			{Name: "fan", Kind: StageMap, Map: func(t core.Tuple, emit func(core.Tuple)) {
				v := t.(*vTuple)
				emit(vt(v.Timestamp(), v.Key, v.Val*10))
				emit(vt(v.Timestamp(), v.Key, v.Val*10+1))
			}},
			{Name: "union", Kind: StagePass},
		}, core.Noop{})
	done := make(chan []core.Tuple)
	go func() { done <- drain(t, o) }()
	runOps(t, fc)
	got := dataOf(<-done)
	want := []int64{10, 11, 20, 21}
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Val != w {
			t.Fatalf("tuple %d = %d, want %d", i, got[i].Val, w)
		}
	}
}

// TestFusedChainValidation: construction rejects empty chains and broken
// stages with a panic (programming errors, like NewColAggregate).
func TestFusedChainValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	in, out := NewStream("in", 0), NewStream("out", 0)
	expectPanic("empty", func() { NewFusedChain("f", in, out, nil, core.Noop{}) })
	expectPanic("map without fn", func() {
		NewFusedChain("f", in, out, []FusedStage{{Name: "m", Kind: StageMap}}, core.Noop{})
	})
	expectPanic("filter without pred", func() {
		NewFusedChain("f", in, out, []FusedStage{{Name: "f", Kind: StageFilter}}, core.Noop{})
	})
	expectPanic("bad kind", func() {
		NewFusedChain("f", in, out, []FusedStage{{Name: "x", Kind: StageKind(99)}}, core.Noop{})
	})
}

// TestStageKindString covers the StageKind names used in plan dumps.
func TestStageKindString(t *testing.T) {
	kinds := []StageKind{StageMap, StageFilter, StageMultiplex, StagePass, StageKind(0)}
	want := []string{"map", "filter", "multiplex", "pass", "invalid"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d String = %q, want %q", i, k.String(), want[i])
		}
	}
}
