package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// labelTuple is a minimal Traceable tuple for tests.
type labelTuple struct {
	Meta
	label string
}

func newLabel(label string, ts int64) *labelTuple {
	return &labelTuple{Meta: NewMeta(ts), label: label}
}

func (t *labelTuple) CloneTuple() Tuple {
	cp := *t
	cp.ResetProvenance()
	return &cp
}

// bareTuple implements Tuple but carries no Meta.
type bareTuple struct{ ts int64 }

func (b bareTuple) Timestamp() int64 { return b.ts }

func source(label string, ts int64) *labelTuple {
	t := newLabel(label, ts)
	t.SetKind(KindSource)
	return t
}

func labels(ts []Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.(*labelTuple).label
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFindProvenanceSourceIsItsOwnProvenance(t *testing.T) {
	s := source("s", 1)
	got := FindProvenance(s)
	if !equalStrings(labels(got), []string{"s"}) {
		t.Fatalf("FindProvenance(source) = %v, want [s]", labels(got))
	}
}

func TestFindProvenanceRemoteIsTerminal(t *testing.T) {
	r := newLabel("r", 1)
	r.SetKind(KindRemote)
	// Even with dangling pointers set, REMOTE terminates traversal.
	r.SetU1(source("hidden", 0))
	got := FindProvenance(r)
	if !equalStrings(labels(got), []string{"r"}) {
		t.Fatalf("FindProvenance(remote) = %v, want [r]", labels(got))
	}
}

func TestFindProvenanceMapChain(t *testing.T) {
	s := source("s", 1)
	m1 := newLabel("m1", 1)
	m1.SetKind(KindMap)
	m1.SetU1(s)
	m2 := newLabel("m2", 1)
	m2.SetKind(KindMultiplex)
	m2.SetU1(m1)
	got := FindProvenance(m2)
	if !equalStrings(labels(got), []string{"s"}) {
		t.Fatalf("FindProvenance(map chain) = %v, want [s]", labels(got))
	}
}

func TestFindProvenanceJoin(t *testing.T) {
	l := source("l", 1)
	r := source("r", 2)
	j := newLabel("j", 2)
	j.SetKind(KindJoin)
	j.SetU1(r) // newer
	j.SetU2(l) // older
	got := FindProvenance(j)
	if !equalStrings(labels(got), []string{"r", "l"}) {
		t.Fatalf("FindProvenance(join) = %v, want [r l]", labels(got))
	}
}

func TestFindProvenanceAggregateWindow(t *testing.T) {
	// Window of four chained source tuples, as in the paper's Q1 (Fig. 4).
	var win []*labelTuple
	for i := 0; i < 4; i++ {
		win = append(win, source(string(rune('a'+i)), int64(i)))
	}
	for i := 0; i < 3; i++ {
		win[i].SetNext(win[i+1])
	}
	out := newLabel("agg", 0)
	out.SetKind(KindAggregate)
	out.SetU2(win[0])
	out.SetU1(win[3])
	got := FindProvenance(out)
	if !equalStrings(labels(got), []string{"a", "b", "c", "d"}) {
		t.Fatalf("FindProvenance(aggregate) = %v, want [a b c d]", labels(got))
	}
}

func TestFindProvenanceAggregateSingleTupleWindow(t *testing.T) {
	s := source("s", 1)
	// A later overlapping window may already have chained s to its group
	// successor; a singleton window must not follow that link.
	s.SetNext(source("later", 2))
	out := newLabel("agg", 1)
	out.SetKind(KindAggregate)
	out.SetU1(s)
	out.SetU2(s)
	got := FindProvenance(out)
	if !equalStrings(labels(got), []string{"s"}) {
		t.Fatalf("FindProvenance(singleton window) = %v, want [s]", labels(got))
	}
}

func TestFindProvenanceAggregateChainBeyondU1Ignored(t *testing.T) {
	// The N chain continues past U1 (overlapping windows keep linking), but
	// traversal must stop at U1 inclusive.
	var chain []*labelTuple
	for i := 0; i < 6; i++ {
		chain = append(chain, source(string(rune('a'+i)), int64(i)))
	}
	for i := 0; i < 5; i++ {
		chain[i].SetNext(chain[i+1])
	}
	out := newLabel("agg", 0)
	out.SetKind(KindAggregate)
	out.SetU2(chain[1])
	out.SetU1(chain[4])
	got := FindProvenance(out)
	if !equalStrings(labels(got), []string{"b", "c", "d", "e"}) {
		t.Fatalf("FindProvenance(window slice) = %v, want [b c d e]", labels(got))
	}
}

func TestFindProvenanceSharedContributorVisitedOnce(t *testing.T) {
	// Diamond: one source contributes through two map branches into a join.
	s := source("s", 1)
	a := newLabel("a", 1)
	a.SetKind(KindMap)
	a.SetU1(s)
	b := newLabel("b", 1)
	b.SetKind(KindMap)
	b.SetU1(s)
	j := newLabel("j", 1)
	j.SetKind(KindJoin)
	j.SetU1(a)
	j.SetU2(b)
	got := FindProvenance(j)
	if !equalStrings(labels(got), []string{"s"}) {
		t.Fatalf("FindProvenance(diamond) = %v, want [s]", labels(got))
	}
}

func TestFindProvenanceNestedAggregates(t *testing.T) {
	// Q3 shape: a second aggregate whose window holds first-level aggregate
	// outputs; provenance is the union of the inner windows.
	mkInner := func(base string, n int, ts int64) *labelTuple {
		var win []*labelTuple
		for i := 0; i < n; i++ {
			win = append(win, source(base+string(rune('0'+i)), ts+int64(i)))
		}
		for i := 0; i+1 < n; i++ {
			win[i].SetNext(win[i+1])
		}
		out := newLabel("agg-"+base, ts)
		out.SetKind(KindAggregate)
		out.SetU2(win[0])
		out.SetU1(win[n-1])
		return out
	}
	in1 := mkInner("x", 3, 0)
	in2 := mkInner("y", 2, 10)
	in1.SetNext(in2)
	outer := newLabel("outer", 0)
	outer.SetKind(KindAggregate)
	outer.SetU2(in1)
	outer.SetU1(in2)
	got := labels(FindProvenance(outer))
	want := map[string]bool{"x0": true, "x1": true, "x2": true, "y0": true, "y1": true}
	if len(got) != len(want) {
		t.Fatalf("nested aggregate provenance = %v, want keys %v", got, want)
	}
	for _, l := range got {
		if !want[l] {
			t.Fatalf("unexpected originating tuple %q in %v", l, got)
		}
	}
}

func TestFindProvenanceNilRoot(t *testing.T) {
	if got := FindProvenance(nil); got != nil {
		t.Fatalf("FindProvenance(nil) = %v, want nil", got)
	}
}

func TestFindProvenanceBareTupleIsTerminal(t *testing.T) {
	b := bareTuple{ts: 5}
	got := FindProvenance(b)
	if len(got) != 1 || got[0] != Tuple(b) {
		t.Fatalf("FindProvenance(bare) = %v, want the tuple itself", got)
	}
}

func TestCountProvenance(t *testing.T) {
	l := source("l", 1)
	r := source("r", 2)
	j := newLabel("j", 2)
	j.SetKind(KindJoin)
	j.SetU1(r)
	j.SetU2(l)
	if n := CountProvenance(j); n != 2 {
		t.Fatalf("CountProvenance = %d, want 2", n)
	}
}

func TestGenealogResolver(t *testing.T) {
	s := source("s", 1)
	m := newLabel("m", 1)
	m.SetKind(KindMap)
	m.SetU1(s)
	var r GenealogResolver
	got := r.Resolve(m)
	if !equalStrings(labels(got), []string{"s"}) {
		t.Fatalf("Resolve = %v, want [s]", labels(got))
	}
}

// randomDAG builds a random contribution graph over ns sources and returns
// the root along with the expected set of originating labels. It exercises
// every tuple kind the traversal distinguishes.
func randomDAG(rng *rand.Rand, ns int) (Tuple, map[string]bool) {
	if ns < 1 {
		ns = 1
	}
	type node struct {
		t    *labelTuple
		want map[string]bool
	}
	var pool []node
	for i := 0; i < ns; i++ {
		lbl := "s" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		pool = append(pool, node{t: source(lbl, int64(i)), want: map[string]bool{lbl: true}})
	}
	steps := 1 + rng.Intn(12)
	ctr := 0
	for i := 0; i < steps; i++ {
		switch rng.Intn(3) {
		case 0: // map over a random node
			in := pool[rng.Intn(len(pool))]
			out := newLabel("m", in.t.Timestamp())
			out.SetKind(KindMap)
			out.SetU1(in.t)
			pool = append(pool, node{t: out, want: in.want})
		case 1: // join of two random nodes
			a := pool[rng.Intn(len(pool))]
			b := pool[rng.Intn(len(pool))]
			out := newLabel("j", max64(a.t.Timestamp(), b.t.Timestamp()))
			out.SetKind(KindJoin)
			out.SetU1(a.t)
			out.SetU2(b.t)
			want := union(a.want, b.want)
			pool = append(pool, node{t: out, want: want})
		case 2: // aggregate over 1..4 random nodes, each wrapped in a fresh
			// MAP tuple so the N chain never conflicts across aggregates.
			n := 1 + rng.Intn(4)
			want := map[string]bool{}
			var win []*labelTuple
			for k := 0; k < n; k++ {
				in := pool[rng.Intn(len(pool))]
				w := newLabel("w", in.t.Timestamp())
				w.SetKind(KindMap)
				w.SetU1(in.t)
				win = append(win, w)
				want = union(want, in.want)
			}
			for k := 0; k+1 < n; k++ {
				win[k].SetNext(win[k+1])
			}
			out := newLabel("a", win[0].Timestamp())
			out.SetKind(KindAggregate)
			out.SetU2(win[0])
			out.SetU1(win[n-1])
			pool = append(pool, node{t: out, want: want})
		}
		ctr++
	}
	root := pool[len(pool)-1]
	return root.t, root.want
}

func union(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestFindProvenanceRandomDAGProperty(t *testing.T) {
	prop := func(seed int64, ns uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		root, want := randomDAG(rng, int(ns%8)+1)
		got := FindProvenance(root)
		if len(got) != len(want) {
			return false
		}
		for _, g := range got {
			if !want[g.(*labelTuple).label] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// referenceProvenance is the map-based BFS of the paper's Listing 1, kept
// as the oracle for FindProvenance's scan-then-map visited set. It also
// returns the number of tuples it visited.
func referenceProvenance(root Tuple) ([]Tuple, int) {
	var result []Tuple
	visited := map[Tuple]struct{}{}
	var queue []Tuple
	enqueue := func(t Tuple) {
		if t == nil {
			return
		}
		if _, ok := visited[t]; ok {
			return
		}
		visited[t] = struct{}{}
		queue = append(queue, t)
	}
	enqueue(root)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		m := MetaOf(t)
		if m == nil {
			result = append(result, t)
			continue
		}
		switch m.Kind() {
		case KindSource, KindRemote, KindNone:
			result = append(result, t)
		case KindMap, KindMultiplex:
			enqueue(m.U1())
		case KindJoin:
			enqueue(m.U1())
			enqueue(m.U2())
		case KindAggregate:
			enqueue(m.U2())
			if u2 := MetaOf(m.U2()); u2 != nil && m.U1() != m.U2() {
				for temp := u2.Next(); temp != nil && temp != m.U1(); temp = MetaOf(temp).Next() {
					enqueue(temp)
				}
			}
			enqueue(m.U1())
		}
	}
	return result, len(visited)
}

// sharedDAG builds a contribution graph whose sub-graphs are shared: every
// step reads random earlier nodes, and a sliding aggregate emits several
// overlapping windows over one N chain (the chain runs past each window's
// U1, as it does while a group's later windows are still open). The root
// joins the last few nodes, so its graph holds many shared tuples.
func sharedDAG(rng *rand.Rand, sources, steps int) Tuple {
	var pool []Tuple
	for i := 0; i < sources; i++ {
		pool = append(pool, source(fmt.Sprintf("s%d", i), int64(i)))
	}
	pick := func() Tuple { return pool[rng.Intn(len(pool))] }
	for i := 0; i < steps; i++ {
		switch rng.Intn(4) {
		case 0:
			m := newLabel("m", 0)
			m.SetKind(KindMap)
			m.SetU1(pick())
			pool = append(pool, m)
		case 1:
			m := newLabel("x", 0)
			m.SetKind(KindMultiplex)
			m.SetU1(pick())
			pool = append(pool, m)
		case 2:
			j := newLabel("j", 0)
			j.SetKind(KindJoin)
			j.SetU1(pick())
			j.SetU2(pick())
			pool = append(pool, j)
		case 3:
			// One group's buffer: a chain of fresh MAP wrappers, closed by
			// 1..3 overlapping windows.
			n := 1 + rng.Intn(12)
			chain := make([]*labelTuple, n)
			for k := range chain {
				w := newLabel("w", 0)
				w.SetKind(KindMap)
				w.SetU1(pick())
				chain[k] = w
				if k > 0 {
					chain[k-1].SetNext(w)
				}
			}
			for c := 1 + rng.Intn(3); c > 0; c-- {
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo)
				a := newLabel("a", 0)
				a.SetKind(KindAggregate)
				a.SetU2(chain[lo])
				a.SetU1(chain[hi])
				pool = append(pool, a)
			}
		}
	}
	root := pool[len(pool)-1]
	for k := 2 + rng.Intn(4); k > 0 && len(pool) > k; k-- {
		j := newLabel("root", 0)
		j.SetKind(KindJoin)
		j.SetU1(root)
		j.SetU2(pool[len(pool)-1-k])
		root = j
	}
	return root
}

func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFindProvenanceMatchesMapReference holds FindProvenance's queue-as-
// visited-set traversal to the map-based BFS: the same originating tuples in
// the same discovery order, on graphs both below and above scanLimit.
func TestFindProvenanceMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small, large := 0, 0
	for i := 0; i < 2000; i++ {
		root := sharedDAG(rng, 1+rng.Intn(30), rng.Intn(40))
		want, visited := referenceProvenance(root)
		if visited > scanLimit {
			large++
		} else {
			small++
		}
		if got := FindProvenance(root); !sameTuples(got, want) {
			t.Fatalf("graph %d (%d tuples): FindProvenance = %v, reference = %v", i, visited, labels(got), labels(want))
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("graphs not spread around scanLimit: %d within, %d beyond", small, large)
	}

	// One wide window: 100 sources through one N chain, far past the limit.
	var win []*labelTuple
	for i := 0; i < 100; i++ {
		win = append(win, source(fmt.Sprintf("w%d", i), int64(i)))
		if i > 0 {
			win[i-1].SetNext(win[i])
		}
	}
	agg := newLabel("agg", 0)
	agg.SetKind(KindAggregate)
	agg.SetU2(win[0])
	agg.SetU1(win[99])
	j := newLabel("j", 0)
	j.SetKind(KindJoin)
	j.SetU1(agg)
	j.SetU2(win[50]) // already reached through the chain
	want, visited := referenceProvenance(j)
	if visited <= scanLimit || len(want) != 100 {
		t.Fatalf("wide window: reference visited %d tuples, found %d sources", visited, len(want))
	}
	if got := FindProvenance(j); !sameTuples(got, want) {
		t.Fatalf("wide window: FindProvenance = %v, reference = %v", labels(got), labels(want))
	}
}
