//go:build !race

// The race detector changes what allocates, so the allocation budgets are
// checked only in plain builds; run them alone with
// `go test -run Alloc ./internal/ops ./internal/core`.

package core

import "testing"

// TestFindProvenanceAllocOnlyResult: below scanLimit the traversal's queue,
// visited set and result buffer live on the stack, so a sink's traversal
// allocates one slice, the result it returns.
func TestFindProvenanceAllocOnlyResult(t *testing.T) {
	// Five sources under maps in a four-tuple N chain, a shared source
	// reached twice, a join of the aggregate with a chain member (a shared
	// sub-graph) and a map over the join.
	var srcs []*labelTuple
	var chain []*labelTuple
	for i := 0; i < 4; i++ {
		s := source(string(rune('a'+i)), int64(i))
		srcs = append(srcs, s)
		w := newLabel("w", int64(i))
		w.SetKind(KindMap)
		w.SetU1(s)
		if i > 0 {
			chain[i-1].SetNext(w)
		}
		chain = append(chain, w)
	}
	agg := newLabel("agg", 0)
	agg.SetKind(KindAggregate)
	agg.SetU2(chain[0])
	agg.SetU1(chain[3])
	e := source("e", 4)
	inner := newLabel("j1", 3)
	inner.SetKind(KindJoin)
	inner.SetU1(e)
	inner.SetU2(srcs[2])
	j := newLabel("j", 4)
	j.SetKind(KindJoin)
	j.SetU1(agg)
	j.SetU2(inner)
	root := newLabel("m", 4)
	root.SetKind(KindMap)
	root.SetU1(j)
	if got := labels(FindProvenance(root)); !equalStrings(got, []string{"e", "c", "a", "b", "d"}) {
		t.Fatalf("FindProvenance = %v, want [e c a b d]", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { FindProvenance(root) }); allocs != 1 {
		t.Fatalf("FindProvenance allocates %.1f times per sink, want 1 (the result)", allocs)
	}
}
