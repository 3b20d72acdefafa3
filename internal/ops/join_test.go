package ops

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"genealog/internal/core"
)

func runJoin(t *testing.T, spec JoinSpec, instr core.Instrumenter, left, right []core.Tuple) []core.Tuple {
	t.Helper()
	l, r := feed(left...), feed(right...)
	out := NewStream("out", 4096)
	j := newJoin("j", l, r, out, spec, instr)
	runOps(t, j)
	return drain(t, out)
}

func joinAll() JoinSpec {
	return JoinSpec{
		WS:        10,
		Predicate: func(l, r core.Tuple) bool { return true },
		Combine: func(l, r core.Tuple) core.Tuple {
			return vt(0, l.(*vTuple).Key, l.(*vTuple).Val+r.(*vTuple).Val)
		},
	}
}

func TestJoinMatchesWithinWindow(t *testing.T) {
	left := []core.Tuple{vt(0, "l", 1), vt(100, "l", 2)}
	right := []core.Tuple{vt(5, "r", 10), vt(104, "r", 20)}
	got := runJoin(t, joinAll(), core.Noop{}, left, right)
	if len(got) != 2 {
		t.Fatalf("got %d matches, want 2: %v", len(got), got)
	}
	if got[0].(*vTuple).Val != 11 || got[1].(*vTuple).Val != 22 {
		t.Fatalf("join values = %d,%d want 11,22", got[0].(*vTuple).Val, got[1].(*vTuple).Val)
	}
}

func TestJoinRespectsWindowBoundary(t *testing.T) {
	// |l.ts - r.ts| <= WS must match at exactly WS and miss at WS+1.
	left := []core.Tuple{vt(0, "l", 1)}
	right := []core.Tuple{vt(10, "r", 10), vt(11, "r", 100)}
	got := runJoin(t, joinAll(), core.Noop{}, left, right)
	if len(got) != 1 || got[0].(*vTuple).Val != 11 {
		t.Fatalf("boundary join = %v", got)
	}
}

func TestJoinPredicateFilters(t *testing.T) {
	spec := joinAll()
	spec.Predicate = func(l, r core.Tuple) bool { return l.(*vTuple).Key == r.(*vTuple).Key }
	left := []core.Tuple{vt(0, "a", 1), vt(1, "b", 2)}
	right := []core.Tuple{vt(2, "a", 10), vt(3, "c", 20)}
	got := runJoin(t, spec, core.Noop{}, left, right)
	if len(got) != 1 || got[0].(*vTuple).Val != 11 {
		t.Fatalf("predicate join = %v", got)
	}
}

func TestJoinOutputTimestampIsMax(t *testing.T) {
	left := []core.Tuple{vt(3, "l", 0)}
	right := []core.Tuple{vt(7, "r", 0)}
	got := runJoin(t, joinAll(), core.Noop{}, left, right)
	if len(got) != 1 || got[0].Timestamp() != 7 {
		t.Fatalf("output ts = %v, want 7", timestamps(got))
	}
}

func TestJoinGLInstrumentation(t *testing.T) {
	l := vt(3, "l", 0)
	r := vt(7, "r", 0)
	l.SetKind(core.KindSource)
	r.SetKind(core.KindSource)
	got := runJoin(t, joinAll(), &core.Genealog{}, []core.Tuple{l}, []core.Tuple{r})
	if len(got) != 1 {
		t.Fatalf("got %d matches", len(got))
	}
	m := core.MetaOf(got[0])
	if m.Kind() != core.KindJoin {
		t.Fatalf("kind = %v, want JOIN", m.Kind())
	}
	// r (ts 7) is processed after l (ts 3) by the merge, so U1 = r (newer).
	if m.U1() != core.Tuple(r) || m.U2() != core.Tuple(l) {
		t.Fatalf("U1=%v U2=%v, want U1=r U2=l", m.U1(), m.U2())
	}
	prov := core.FindProvenance(got[0])
	if len(prov) != 2 {
		t.Fatalf("provenance = %d tuples, want 2", len(prov))
	}
}

func TestJoinStimulusIsPairMax(t *testing.T) {
	l, r := vt(0, "l", 0), vt(1, "r", 0)
	l.SetStimulus(50)
	r.SetStimulus(20)
	got := runJoin(t, joinAll(), core.Noop{}, []core.Tuple{l}, []core.Tuple{r})
	if s := core.MetaOf(got[0]).Stimulus(); s != 50 {
		t.Fatalf("stimulus = %d, want 50", s)
	}
}

func TestJoinDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(n int, key string) []core.Tuple {
		var outp []core.Tuple
		ts := int64(0)
		for i := 0; i < n; i++ {
			ts += rng.Int63n(4)
			outp = append(outp, vt(ts, key, rng.Int63n(50)))
		}
		return outp
	}
	left, right := mk(200, "l"), mk(200, "r")
	spec := joinAll()
	spec.WS = 6
	a := runJoin(t, spec, core.Noop{}, left, right)
	b := runJoin(t, spec, core.Noop{}, left, right)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic match counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].(*vTuple).Val != b[i].(*vTuple).Val || a[i].Timestamp() != b[i].Timestamp() {
			t.Fatalf("non-deterministic match at %d", i)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Timestamp() < a[i-1].Timestamp() {
			t.Fatalf("join output not sorted at %d", i)
		}
	}
}

// TestJoinBruteForceProperty compares the streaming join against a brute
// force nested loop over random inputs, on the spec derived from the row
// predicate: unkeyed (one constant key, the whole predicate as residual) and
// keyed (hash probe plus the predicate as residual).
func TestJoinBruteForceProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		for _, keyed := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			mk := func(n int) []core.Tuple {
				var outp []core.Tuple
				ts := int64(0)
				for i := 0; i < n; i++ {
					ts += rng.Int63n(5)
					outp = append(outp, vt(ts, []string{"a", "b"}[rng.Intn(2)], rng.Int63n(10)))
				}
				return outp
			}
			left, right := mk(60), mk(60)
			ws := int64(1 + rng.Intn(12))
			pred := func(l, r core.Tuple) bool { return (l.(*vTuple).Val+r.(*vTuple).Val)%2 == 0 }
			spec := JoinSpec{
				WS: ws,
				Combine: func(l, r core.Tuple) core.Tuple {
					return vt(0, "o", l.(*vTuple).Val*100+r.(*vTuple).Val)
				},
			}
			if keyed {
				spec.LeftKey, spec.RightKey = keyOf, keyOf
				spec.Predicate = func(l, r core.Tuple) bool { return keyOf(l) == keyOf(r) && pred(l, r) }
			} else {
				spec.Predicate = pred
			}
			var want []string
			for _, l := range left {
				for _, r := range right {
					d := l.Timestamp() - r.Timestamp()
					if d < 0 {
						d = -d
					}
					if d <= ws && spec.Predicate(l, r) {
						ts := max(l.Timestamp(), r.Timestamp())
						want = append(want, fmt.Sprintf("%04d/%d", ts, l.(*vTuple).Val*100+r.(*vTuple).Val))
					}
				}
			}
			out := runJoin(t, spec, core.Noop{}, left, right)
			got := make([]string, len(out))
			for i, o := range out {
				if i > 0 && o.Timestamp() < out[i-1].Timestamp() {
					t.Fatalf("seed %d keyed=%v: output not sorted at %d", seed, keyed, i)
				}
				got[i] = fmt.Sprintf("%04d/%d", o.Timestamp(), o.(*vTuple).Val)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("seed %d keyed=%v: join produced %v, brute force %v", seed, keyed, got, want)
			}
		}
	}
}

func TestJoinSpecValidation(t *testing.T) {
	bad := []JoinSpec{
		{WS: -1, Predicate: func(l, r core.Tuple) bool { return true }, Combine: func(l, r core.Tuple) core.Tuple { return nil }},
		{WS: 1},
	}
	for i, spec := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %d: the join must panic on invalid spec", i)
				}
			}()
			newJoin("j", NewStream("l", 1), NewStream("r", 1), NewStream("o", 1), spec, core.Noop{})
		}()
	}
}

func TestMergeDeterministicOrderProperty(t *testing.T) {
	// Whatever the relative arrival speeds, tsMerge must produce the global
	// timestamp order with index tie-breaks. Feeding pre-filled streams
	// makes arrival order degenerate; the determinism test in the query
	// package covers live interleavings.
	in1 := feed(vt(1, "a", 0), vt(2, "a", 0), vt(2, "a", 1))
	in2 := feed(vt(2, "b", 0), vt(3, "b", 0))
	out := NewStream("out", 16)
	u := NewUnion("u", []*Stream{in1, in2}, out)
	runOps(t, u)
	got := drain(t, out)
	wantKeys := []string{"a", "a", "a", "b", "b"}
	for i, tup := range got {
		if tup.(*vTuple).Key != wantKeys[i] {
			t.Fatalf("merge order wrong at %d: %v", i, got)
		}
	}
}
