package query

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"genealog/internal/core"
	"genealog/internal/ops"
)

// muxProbe builds a query whose branches record every data tuple they
// receive, so a test can tell by object identity whether a Multiplex shared
// the source's tuples or handed its branches copies.
type muxProbe struct {
	t   *testing.T
	b   *Builder
	src *Node

	mu      sync.Mutex
	emitted map[core.Tuple]bool
	seen    map[string][]core.Tuple
}

func newMuxProbe(t *testing.T, instr core.Instrumenter, opts ...Option) *muxProbe {
	p := &muxProbe{
		t:       t,
		b:       New("mux", append([]Option{WithInstrumenter(instr)}, opts...)...),
		emitted: make(map[core.Tuple]bool),
		seen:    make(map[string][]core.Tuple),
	}
	p.src = p.source("src")
	return p
}

// source adds a source of 40 tuples (three keys, one per time unit).
func (p *muxProbe) source(name string) *Node {
	src := p.b.AddSource(name, sliceSource(40, 1))
	src.OnEmit = func(tp core.Tuple) {
		p.mu.Lock()
		p.emitted[tp] = true
		p.mu.Unlock()
	}
	return src
}

func (p *muxProbe) record(branch string, tp core.Tuple) {
	p.mu.Lock()
	p.seen[branch] = append(p.seen[branch], tp)
	p.mu.Unlock()
}

// filter records what reaches it and forwards every tuple.
func (p *muxProbe) filter(name string) *Node {
	return p.b.AddFilter(name, func(tp core.Tuple) bool { p.record(name, tp); return true })
}

func (p *muxProbe) sink(name string) *Node {
	return p.b.AddSink(name, func(tp core.Tuple) error { p.record(name, tp); return nil })
}

// custom is a Custom operator draining its input.
func (p *muxProbe) custom(name string) *Node {
	return p.b.AddCustom(name, 1, 0, func(ins, _ []*ops.Stream) (ops.Operator, error) {
		return ops.NewSink(name, ins[0], func(tp core.Tuple) error { p.record(name, tp); return nil }), nil
	})
}

// agg is a keyed tumbling Aggregate recording every window's contents.
func (p *muxProbe) agg(name string) *Node {
	return p.b.AddAggregate(name, ops.AggregateSpec{
		WS: 4, WA: 4,
		Key: func(tp core.Tuple) string { return tp.(*vTuple).Key },
		Fold: func(w []core.Tuple, _, _ int64, key string) core.Tuple {
			for _, tp := range w {
				p.record(name, tp)
			}
			return vt(0, key, int64(len(w)))
		},
	})
}

// join is a keyed Join recording its right-hand inputs.
func (p *muxProbe) join(name string) *Node {
	key := func(tp core.Tuple) string { return tp.(*vTuple).Key }
	return p.b.AddJoin(name, ops.JoinSpec{
		WS: 4, LeftKey: key, RightKey: key,
		Predicate: func(l, r core.Tuple) bool { return key(l) == key(r) },
		Combine: func(l, r core.Tuple) core.Tuple {
			p.record(name, r)
			return vt(0, key(l), 0)
		},
	})
}

// run builds and runs the query under a deadline.
func (p *muxProbe) run() *Query {
	p.t.Helper()
	q, err := p.b.Build()
	if err != nil {
		p.t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Run(ctx); err != nil {
		p.t.Fatal(err)
	}
	return q
}

// shared reports whether the branch received the source's very objects
// (true) or copies of them (false); mixed or empty observations fail.
func (p *muxProbe) shared(branch string) bool {
	p.t.Helper()
	got := p.seen[branch]
	if len(got) == 0 {
		p.t.Fatalf("branch %q received nothing", branch)
	}
	n := 0
	for _, tp := range got {
		if p.emitted[tp] {
			n++
		}
	}
	if n != 0 && n != len(got) {
		p.t.Fatalf("branch %q: %d of %d tuples are source objects, want all or none", branch, n, len(got))
	}
	return n == len(got)
}

func (p *muxProbe) expect(want bool, branches ...string) {
	p.t.Helper()
	for _, br := range branches {
		if got := p.shared(br); got != want {
			p.t.Errorf("branch %q shares the source objects: %v, want %v", br, got, want)
		}
	}
}

// TestMuxQ4ShapeShares: Q4's mux feeds one Aggregate (writes N) and a
// Filter -> Join branch (reads), so GL forwards the same object to both.
func TestMuxQ4ShapeShares(t *testing.T) {
	p := newMuxProbe(t, &core.Genealog{})
	mux := p.b.AddMultiplex("mux")
	agg, mid, join := p.agg("daily"), p.filter("midnight"), p.join("join")
	p.b.Connect(p.src, mux)
	p.b.Connect(mux, agg)
	p.b.Connect(mux, mid)
	p.b.ConnectPort(agg, join, PortLeft)
	p.b.ConnectPort(mid, join, PortRight)
	p.b.Connect(join, p.sink("k"))
	q := p.run()
	p.expect(true, "daily", "midnight", "join")
	if !strings.Contains(q.Explain(), "multiplex shared") {
		t.Fatalf("Explain does not mark the shared mux:\n%s", q.Explain())
	}
}

// TestMuxSUShapeShares: the single-stream unfolder's mux feeds a Sink and the
// unfolding Map whose output reaches the provenance collector (Custom): one
// possible writer.
func TestMuxSUShapeShares(t *testing.T) {
	p := newMuxProbe(t, &core.Genealog{})
	mux := p.b.AddMultiplex("su.mux")
	unfold := p.b.AddMap("su.unfold", func(tp core.Tuple, emit func(core.Tuple)) {
		p.record("su.unfold", tp)
		emit(vt(tp.Timestamp(), "rec", 0))
	})
	p.b.Connect(p.src, mux)
	p.b.Connect(mux, p.sink("so"))
	p.b.Connect(mux, unfold)
	p.b.Connect(unfold, p.custom("collector"))
	p.run()
	p.expect(true, "so", "su.unfold")
}

// TestMuxMUShapeShares: the multi-stream unfolder's mux splits the derived
// stream into a Filter -> Join branch and a Filter -> Union branch reaching
// the collector: one possible writer.
func TestMuxMUShapeShares(t *testing.T) {
	p := newMuxProbe(t, &core.Genealog{})
	up := p.b.AddUnion("mu.up")
	p.b.Connect(p.source("upstream"), up)
	mux := p.b.AddMultiplex("mu.mux")
	remote, local := p.filter("mu.remote"), p.filter("mu.local")
	join, out := p.join("mu.join"), p.b.AddUnion("mu.out")
	p.b.Connect(p.src, mux)
	p.b.Connect(mux, remote)
	p.b.Connect(mux, local)
	p.b.ConnectPort(remote, join, PortLeft)
	p.b.ConnectPort(up, join, PortRight)
	p.b.Connect(join, out)
	p.b.Connect(local, out)
	p.b.Connect(out, p.custom("collector"))
	p.run()
	p.expect(true, "mu.remote", "mu.local")
}

// TestMuxTwoAggregatesClone: two Aggregates buffering one object would
// corrupt each other's N chains.
func TestMuxTwoAggregatesClone(t *testing.T) {
	p := newMuxProbe(t, &core.Genealog{})
	mux := p.b.AddMultiplex("mux")
	a1, a2 := p.agg("a1"), p.agg("a2")
	p.b.Connect(p.src, mux)
	p.b.Connect(mux, a1)
	p.b.Connect(mux, a2)
	p.b.Connect(a1, p.sink("k1"))
	p.b.Connect(a2, p.sink("k2"))
	q := p.run()
	p.expect(false, "a1", "a2")
	if strings.Contains(q.Explain(), "multiplex shared") {
		t.Fatalf("Explain marks a cloning mux as shared:\n%s", q.Explain())
	}
}

// TestMuxDiamondIntoOneAggregateClones: paths are counted, not writers — an
// object taking both sides of the diamond would be buffered twice by the
// same Aggregate.
func TestMuxDiamondIntoOneAggregateClones(t *testing.T) {
	p := newMuxProbe(t, &core.Genealog{})
	mux := p.b.AddMultiplex("mux")
	f1, f2, u, a := p.filter("f1"), p.filter("f2"), p.b.AddUnion("u"), p.agg("a")
	p.b.Connect(p.src, mux)
	p.b.Connect(mux, f1)
	p.b.Connect(mux, f2)
	p.b.Connect(f1, u)
	p.b.Connect(f2, u)
	p.b.Connect(u, a)
	p.b.Connect(a, p.sink("k"))
	p.run()
	p.expect(false, "f1", "f2")
}

// TestMuxTwoCustomsClone: a Custom operator's writes are unknown, so two of
// them never share an object.
func TestMuxTwoCustomsClone(t *testing.T) {
	p := newMuxProbe(t, &core.Genealog{})
	mux := p.b.AddMultiplex("mux")
	p.b.Connect(p.src, mux)
	p.b.Connect(mux, p.custom("c1"))
	p.b.Connect(mux, p.custom("c2"))
	p.run()
	p.expect(false, "c1", "c2")
}

// TestMuxReadOnlyCustomsShare: the SU's mux on a sending instance feeds a
// Send and the unfolding Map whose records a second Send ships. Custom
// nodes declared ReadOnly, as Send is, never write, so the mux shares.
func TestMuxReadOnlyCustomsShare(t *testing.T) {
	p := newMuxProbe(t, &core.Genealog{})
	mux := p.b.AddMultiplex("su.mux")
	unfold := p.b.AddMap("su.unfold", func(tp core.Tuple, emit func(core.Tuple)) {
		p.record("su.unfold", tp)
		emit(vt(tp.Timestamp(), "rec", 0))
	})
	p.b.Connect(p.src, mux)
	p.b.Connect(mux, p.custom("send-main").ReadOnly())
	p.b.Connect(mux, unfold)
	p.b.Connect(unfold, p.custom("send-u").ReadOnly())
	p.run()
	p.expect(true, "send-main", "su.unfold")
}

// TestMuxReadOnlyCustomCountsNoWriter: a ReadOnly Custom beside one writer
// leaves one writer, so the mux shares; beside two, the mux still clones.
func TestMuxReadOnlyCustomCountsNoWriter(t *testing.T) {
	p := newMuxProbe(t, &core.Genealog{})
	mux := p.b.AddMultiplex("mux")
	p.b.Connect(p.src, mux)
	p.b.Connect(mux, p.custom("reader").ReadOnly())
	p.b.Connect(mux, p.custom("writer"))
	p.run()
	p.expect(true, "reader", "writer")

	p = newMuxProbe(t, &core.Genealog{})
	mux = p.b.AddMultiplex("mux")
	p.b.Connect(p.src, mux)
	p.b.Connect(mux, p.custom("reader").ReadOnly())
	p.b.Connect(mux, p.custom("w1"))
	p.b.Connect(mux, p.custom("w2"))
	p.run()
	p.expect(false, "reader", "w1", "w2")
}

// TestMuxNestedJudgedOnOuterWalk: a mux inside another mux's branch is judged
// on the walk from the object's creator, through both muxes.
func TestMuxNestedJudgedOnOuterWalk(t *testing.T) {
	t.Run("one writer: both share", func(t *testing.T) {
		p := newMuxProbe(t, &core.Genealog{})
		outer, inner := p.b.AddMultiplex("outer"), p.b.AddMultiplex("inner")
		a := p.agg("a")
		p.b.Connect(p.src, outer)
		p.b.Connect(outer, a)
		p.b.Connect(outer, inner)
		p.b.Connect(inner, p.sink("s1"))
		p.b.Connect(inner, p.sink("s2"))
		p.b.Connect(a, p.sink("k"))
		p.run()
		p.expect(true, "a", "s1", "s2")
	})
	t.Run("two writers: both clone", func(t *testing.T) {
		// The inner mux alone sees one writer, but the walk through the
		// outer mux counts two, and the inner mux is judged on it too.
		p := newMuxProbe(t, &core.Genealog{})
		outer, inner := p.b.AddMultiplex("outer"), p.b.AddMultiplex("inner")
		a1, a2 := p.agg("a1"), p.agg("a2")
		p.b.Connect(p.src, outer)
		p.b.Connect(outer, a1)
		p.b.Connect(outer, inner)
		p.b.Connect(inner, a2)
		p.b.Connect(inner, p.sink("s"))
		p.b.Connect(a1, p.sink("k1"))
		p.b.Connect(a2, p.sink("k2"))
		p.run()
		p.expect(false, "a1", "a2", "s")
	})
}

// cloneAll asks for per-branch copies at every Multiplex, like the baseline.
type cloneAll struct{ core.Genealog }

func (*cloneAll) NeedsMultiplexClone(int) bool { return true }

// TestMuxDecisionFollowsInstrumenter: NP never clones, even where two
// Aggregates share an object; an instrumenter asking for copies everywhere
// (BL) gets them, even where GL would share. Both hold for a pass-through
// mux fused into a chain and for an unfused one.
func TestMuxDecisionFollowsInstrumenter(t *testing.T) {
	for _, fusion := range []bool{true, false} {
		np := newMuxProbe(t, core.Noop{}, WithFusion(fusion))
		mux := np.b.AddMultiplex("mux")
		a1, a2 := np.agg("a1"), np.agg("a2")
		np.b.Connect(np.src, mux)
		np.b.Connect(mux, a1)
		np.b.Connect(mux, a2)
		np.b.Connect(a1, np.sink("k1"))
		np.b.Connect(a2, np.sink("k2"))
		np.run()
		np.expect(true, "a1", "a2")

		for _, tc := range []struct {
			instr core.Instrumenter
			share bool
		}{{&core.Genealog{}, true}, {&cloneAll{}, false}} {
			p := newMuxProbe(t, tc.instr, WithFusion(fusion))
			pass := p.b.AddMultiplex("pass")
			f, a := p.filter("f"), p.agg("a")
			p.b.Connect(p.src, pass)
			p.b.Connect(pass, f)
			p.b.Connect(f, a)
			p.b.Connect(a, p.sink("k"))
			q := p.run()
			p.expect(tc.share, "f", "a")
			if fusion && q.FusedChains() != 1 {
				t.Fatalf("pass-through mux did not fuse:\n%s", q.Explain())
			}
		}
	}
}

// TestIdentityMapKeepsProvenance: a Map forwarding its input (a row Map
// emitting what it received, or a vectorized kernel returning nil) creates
// nothing, so a source passing it keeps its contribution set [source].
func TestIdentityMapKeepsProvenance(t *testing.T) {
	schema := &ops.ColSchema{Fields: []ops.ColField{
		{Name: "val", Kind: ops.ColInt64, Int: func(tp core.Tuple) int64 { return tp.(*vTuple).Val }},
	}}
	for _, vectorized := range []bool{false, true} {
		b := New("identity", WithInstrumenter(&core.Genealog{}))
		src := b.AddSource("src", sliceSource(20, 1))
		id := b.AddMap("id", func(tp core.Tuple, emit func(core.Tuple)) { emit(tp) })
		if vectorized {
			id.Columnar(ColSpec{Schema: schema, Map: func(*ops.ColBatch, []int, []core.Tuple) []core.Tuple { return nil }})
		}
		var got []core.Tuple
		b.Connect(src, id)
		b.Connect(id, b.AddSink("k", func(tp core.Tuple) error { got = append(got, tp); return nil }))
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if (q.VectorizedSegments() == 1) != vectorized {
			t.Fatalf("vectorized=%v but the plan has %d vectorized segments", vectorized, q.VectorizedSegments())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = q.Run(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 20 {
			t.Fatalf("vectorized=%v: %d sink tuples, want 20", vectorized, len(got))
		}
		for _, tp := range got {
			if prov := core.FindProvenance(tp); len(prov) != 1 || prov[0] != tp {
				t.Fatalf("vectorized=%v: contribution set of %v = %v, want [itself]", vectorized, tp, prov)
			}
		}
	}
}
