package core

import (
	"strings"
	"sync"
	"testing"
)

func TestGenealogOnSource(t *testing.T) {
	g := &Genealog{}
	s := newLabel("s", 1)
	g.OnSource(s)
	if s.Kind() != KindSource {
		t.Fatalf("kind = %v, want SOURCE", s.Kind())
	}
	if s.ID() != 0 {
		t.Fatalf("intra-process source should have no ID, got %d", s.ID())
	}
}

func TestGenealogOnSourceAssignsIDsWhenConfigured(t *testing.T) {
	g := &Genealog{IDs: NewIDGen(3)}
	a, b := newLabel("a", 1), newLabel("b", 2)
	g.OnSource(a)
	g.OnSource(b)
	if a.ID() == 0 || b.ID() == 0 {
		t.Fatal("inter-process sources must get IDs")
	}
	if a.ID() == b.ID() {
		t.Fatalf("IDs must be unique, both = %d", a.ID())
	}
}

func TestGenealogOnMapAndMultiplex(t *testing.T) {
	g := &Genealog{}
	in := source("in", 1)
	out := newLabel("out", 1)
	g.OnMap(out, in)
	if out.Kind() != KindMap || out.U1() != Tuple(in) {
		t.Fatalf("OnMap: kind=%v u1=%v", out.Kind(), out.U1())
	}
	cp := newLabel("cp", 1)
	g.OnMultiplex(cp, in)
	if cp.Kind() != KindMultiplex || cp.U1() != Tuple(in) {
		t.Fatalf("OnMultiplex: kind=%v u1=%v", cp.Kind(), cp.U1())
	}
}

func TestGenealogOnJoin(t *testing.T) {
	g := &Genealog{}
	older := source("older", 1)
	newer := source("newer", 5)
	out := newLabel("out", 5)
	g.OnJoin(out, newer, older)
	if out.Kind() != KindJoin {
		t.Fatalf("kind = %v, want JOIN", out.Kind())
	}
	if out.U1() != Tuple(newer) || out.U2() != Tuple(older) {
		t.Fatal("join must set U1=newer, U2=older")
	}
}

func TestGenealogAggregateLinkWritesOnce(t *testing.T) {
	g := &Genealog{}
	a, b, c := source("a", 1), source("b", 2), source("c", 3)
	g.OnAggregateLink(a, b)
	// Overlapping windows re-link the same pair; the first write must win.
	g.OnAggregateLink(a, c)
	if a.Next() != Tuple(b) {
		t.Fatalf("a.Next = %v, want b", a.Next())
	}
	g.OnAggregateLink(nil, b) // must not panic
}

func TestGenealogOnAggregateEmit(t *testing.T) {
	g := &Genealog{}
	win := []Tuple{source("a", 1), source("b", 2), source("c", 3)}
	out := newLabel("out", 0)
	g.OnAggregateEmit(out, win)
	if out.Kind() != KindAggregate || out.U2() != win[0] || out.U1() != win[2] {
		t.Fatalf("emit: kind=%v u2=%v u1=%v", out.Kind(), out.U2(), out.U1())
	}
	empty := newLabel("e", 0)
	g.OnAggregateEmit(empty, nil)
	if empty.Kind() != KindNone {
		t.Fatal("empty window must not be instrumented")
	}
}

func TestGenealogOnSendAssignsIDOnce(t *testing.T) {
	g := &Genealog{IDs: NewIDGen(1)}
	s := source("s", 1)
	g.OnSend(s)
	id := s.ID()
	if id == 0 {
		t.Fatal("OnSend must assign an ID")
	}
	g.OnSend(s)
	if s.ID() != id {
		t.Fatal("OnSend must not reassign an existing ID")
	}
}

func TestGenealogOnReceive(t *testing.T) {
	g := &Genealog{}
	agg := newLabel("agg", 1)
	agg.SetKind(KindAggregate)
	agg.SetU1(source("dangling", 0))
	g.OnReceive(agg)
	if agg.Kind() != KindRemote {
		t.Fatalf("non-source received tuple must become REMOTE, got %v", agg.Kind())
	}
	if agg.U1() != nil || agg.U2() != nil || agg.Next() != nil {
		t.Fatal("received tuples must carry no dangling pointers")
	}

	src := source("src", 1)
	g.OnReceive(src)
	if src.Kind() != KindSource {
		t.Fatalf("source tuples stay SOURCE across processes, got %v", src.Kind())
	}
}

func TestNoopLeavesTuplesUntouched(t *testing.T) {
	var n Noop
	s := newLabel("s", 1)
	n.OnSource(s)
	n.OnMap(s, s)
	n.OnJoin(s, s, s)
	n.OnAggregateLink(s, s)
	n.OnAggregateEmit(s, []Tuple{s})
	n.OnSend(s)
	n.OnReceive(s)
	if s.Kind() != KindNone || s.U1() != nil || s.U2() != nil || s.Next() != nil {
		t.Fatal("Noop must not set any meta-attribute")
	}
	for _, writers := range []int{0, 1, 2} {
		if n.NeedsMultiplexClone(writers) {
			t.Fatalf("Noop must not require multiplex clones (%d writers)", writers)
		}
	}
}

// TestGenealogClonesOnlyForTwoWriters: GL shares a multiplexed object unless
// two branches could write its N chain.
func TestGenealogClonesOnlyForTwoWriters(t *testing.T) {
	g := &Genealog{}
	for writers, want := range []bool{false, false, true, true} {
		if got := g.NeedsMultiplexClone(writers); got != want {
			t.Fatalf("NeedsMultiplexClone(%d) = %v, want %v", writers, got, want)
		}
	}
}

// TestGenealogIdentityMapIsNoop: a Map forwarding its input must leave the
// tuple's provenance intact, or traversal would lose its sources.
func TestGenealogIdentityMapIsNoop(t *testing.T) {
	g := &Genealog{IDs: NewIDGen(1)}
	s := source("s", 1)
	g.OnSource(s)
	id := s.ID()
	g.OnMap(s, s)
	if s.Kind() != KindSource || s.U1() != nil || s.ID() != id {
		t.Fatalf("identity OnMap rewrote the tuple: kind=%v u1=%v id=%d (was %d)", s.Kind(), s.U1(), s.ID(), id)
	}
	if got := FindProvenance(s); len(got) != 1 || got[0] != Tuple(s) {
		t.Fatalf("FindProvenance after an identity map = %v, want [s]", got)
	}
}

func TestIDGenUniqueAcrossGoroutines(t *testing.T) {
	g := NewIDGen(2)
	const perG, workers = 1000, 8
	var mu sync.Mutex
	seen := make(map[uint64]bool, perG*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint64, 0, perG)
			for i := 0; i < perG; i++ {
				ids = append(ids, g.Next())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate ID %d", id)
					return
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != perG*workers {
		t.Fatalf("got %d unique IDs, want %d", len(seen), perG*workers)
	}
}

func TestIDGenNodePrefixesDistinct(t *testing.T) {
	a, b := NewIDGen(1), NewIDGen(2)
	ida, idb := a.Next(), b.Next()
	if ida == idb {
		t.Fatalf("IDs from distinct nodes collide: %d", ida)
	}
	if ida>>48 == idb>>48 {
		t.Fatalf("node prefixes must differ: %x vs %x", ida, idb)
	}
}

func TestMetaAccessors(t *testing.T) {
	m := NewMeta(42)
	if m.Timestamp() != 42 {
		t.Fatalf("ts = %d, want 42", m.Timestamp())
	}
	m.SetTimestamp(43)
	if m.Timestamp() != 43 {
		t.Fatalf("ts = %d, want 43", m.Timestamp())
	}
	m.SetStimulus(100)
	m.MergeStimulus(50) // lower: ignored
	if m.Stimulus() != 100 {
		t.Fatalf("stimulus = %d, want 100", m.Stimulus())
	}
	m.MergeStimulus(150)
	if m.Stimulus() != 150 {
		t.Fatalf("stimulus = %d, want 150", m.Stimulus())
	}
	m.SetAnnotation([]uint64{1, 2})
	if len(m.Annotation()) != 2 {
		t.Fatal("annotation not stored")
	}
	m.SetKind(KindJoin)
	m.SetID(7)
	m.ResetProvenance()
	if m.Kind() != KindNone || m.ID() != 0 || m.Annotation() != nil {
		t.Fatal("ResetProvenance must clear provenance state")
	}
	if m.Timestamp() != 43 || m.Stimulus() != 150 {
		t.Fatal("ResetProvenance must keep ts and stimulus")
	}
}

func TestMetaOf(t *testing.T) {
	if MetaOf(bareTuple{}) != nil {
		t.Fatal("bare tuples have no meta")
	}
	l := newLabel("l", 1)
	if MetaOf(l) != l.ProvMeta() {
		t.Fatal("MetaOf must return the embedded meta")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNone: "NONE", KindSource: "SOURCE", KindRemote: "REMOTE",
		KindMap: "MAP", KindMultiplex: "MULTIPLEX", KindJoin: "JOIN",
		KindAggregate: "AGGREGATE", Kind(99): "INVALID",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// mustPanic runs f and returns the panic message, failing if f returns.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg, _ = r.(string)
	}()
	f()
	return ""
}

// TestStrictSingleWriterChecks: with SetStrict on, a second, different N
// and an ID OnSend would have to draw both panic; relinking the same N, an
// ID drawn at creation and a Send without an ID generator do not.
func TestStrictSingleWriterChecks(t *testing.T) {
	was := SetStrict(true)
	defer SetStrict(was)
	g := &Genealog{IDs: NewIDGen(1)}
	prev, cur := newLabel("prev", 1), newLabel("cur", 2)
	g.OnAggregateLink(prev, cur)
	g.OnAggregateLink(prev, cur) // the same object again: an overlapping window
	msg := mustPanic(t, func() { g.OnAggregateLink(prev, newLabel("other", 2)) })
	if !strings.Contains(msg, "*core.labelTuple already links N to a *core.labelTuple") {
		t.Fatalf("panic %q does not name both tuple types", msg)
	}
	if prev.Next() != cur {
		t.Fatal("a refused second writer must leave N alone")
	}

	sent := newLabel("sent", 1)
	g.OnSource(sent)
	g.OnSend(sent)
	mustPanic(t, func() { g.OnSend(newLabel("unnumbered", 1)) })
	(&Genealog{}).OnSend(newLabel("intra", 1))

	SetStrict(false)
	other := newLabel("other", 2)
	g.OnAggregateLink(prev, other)
	unnumbered := newLabel("unnumbered", 1)
	g.OnSend(unnumbered)
	if prev.Next() != cur || unnumbered.ID() == 0 {
		t.Fatal("with strict checks off, a second N is skipped and a missing ID drawn")
	}
}
