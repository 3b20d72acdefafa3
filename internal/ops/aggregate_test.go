package ops

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"genealog/internal/core"
)

func runAggregate(t *testing.T, spec AggregateSpec, instr core.Instrumenter, input ...core.Tuple) []core.Tuple {
	t.Helper()
	in := feed(input...)
	out := NewStream("out", 1024)
	a := newAggregate("a", in, out, spec, instr)
	runOps(t, a)
	return drain(t, out)
}

func TestAggregateTumblingCount(t *testing.T) {
	// Window [0,10) -> 3 tuples, [10,20) -> 2, [20,30) -> 1.
	input := []core.Tuple{
		vt(0, "k", 1), vt(3, "k", 1), vt(9, "k", 1),
		vt(10, "k", 1), vt(15, "k", 1),
		vt(25, "k", 1),
	}
	got := runAggregate(t, AggregateSpec{WS: 10, WA: 10, Fold: countFold}, core.Noop{}, input...)
	if len(got) != 3 {
		t.Fatalf("got %d windows, want 3: %v", len(got), timestamps(got))
	}
	wantCounts := []int64{3, 2, 1}
	wantTs := []int64{0, 10, 20}
	for i, tup := range got {
		if tup.(*vTuple).Val != wantCounts[i] || tup.Timestamp() != wantTs[i] {
			t.Fatalf("window %d = (ts %d, count %d), want (ts %d, count %d)",
				i, tup.Timestamp(), tup.(*vTuple).Val, wantTs[i], wantCounts[i])
		}
	}
}

func TestAggregateSlidingWindows(t *testing.T) {
	// Q1 shape: WS=120, WA=30, reports every 30s starting at ts=1.
	input := seq(1, 30, 4, "car") // ts 1, 31, 61, 91
	got := runAggregate(t, AggregateSpec{WS: 120, WA: 30, Fold: countFold}, core.Noop{}, input...)
	// Windows starting -90,-60,-30 hold 1,2,3 tuples... window 0 holds all 4,
	// then 30,60,90 hold 3,2,1 (flushed at EOS).
	wantTs := []int64{-90, -60, -30, 0, 30, 60, 90}
	wantN := []int64{1, 2, 3, 4, 3, 2, 1}
	if !int64sEqual(timestamps(got), wantTs) {
		t.Fatalf("window starts = %v, want %v", timestamps(got), wantTs)
	}
	for i, tup := range got {
		if tup.(*vTuple).Val != wantN[i] {
			t.Fatalf("window %d count = %d, want %d", i, tup.(*vTuple).Val, wantN[i])
		}
	}
}

func TestAggregateGroupBy(t *testing.T) {
	input := []core.Tuple{
		vt(1, "a", 10), vt(2, "b", 1), vt(3, "a", 5),
		vt(11, "b", 2),
	}
	got := runAggregate(t, AggregateSpec{WS: 10, WA: 10, Key: keyOf, Fold: sumFold}, core.Noop{}, input...)
	if len(got) != 3 {
		t.Fatalf("got %d outputs, want 3", len(got))
	}
	// Window [0,10): groups a (15) then b (1) in key order; window [10,20): b (2).
	if got[0].(*vTuple).Key != "a" || got[0].(*vTuple).Val != 15 {
		t.Fatalf("first output = %+v", got[0])
	}
	if got[1].(*vTuple).Key != "b" || got[1].(*vTuple).Val != 1 {
		t.Fatalf("second output = %+v", got[1])
	}
	if got[2].(*vTuple).Key != "b" || got[2].(*vTuple).Val != 2 {
		t.Fatalf("third output = %+v", got[2])
	}
}

func TestAggregateOutputSortedAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var input []core.Tuple
	ts := int64(0)
	for i := 0; i < 500; i++ {
		ts += rng.Int63n(3)
		input = append(input, vt(ts, valStr(rng.Int63n(5)), rng.Int63n(100)))
	}
	spec := AggregateSpec{WS: 20, WA: 5, Key: keyOf, Fold: sumFold}
	first := runAggregate(t, spec, core.Noop{}, input...)
	for i := 1; i < len(first); i++ {
		if first[i].Timestamp() < first[i-1].Timestamp() {
			t.Fatalf("output not timestamp-sorted at %d: %d < %d", i, first[i].Timestamp(), first[i-1].Timestamp())
		}
	}
	second := runAggregate(t, spec, core.Noop{}, input...)
	if len(first) != len(second) {
		t.Fatalf("non-deterministic output sizes: %d vs %d", len(first), len(second))
	}
	for i := range first {
		a, b := first[i].(*vTuple), second[i].(*vTuple)
		if a.Timestamp() != b.Timestamp() || a.Key != b.Key || a.Val != b.Val {
			t.Fatalf("non-deterministic output at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestAggregateWindowEndTsPolicy(t *testing.T) {
	input := []core.Tuple{vt(1, "k", 1)}
	got := runAggregate(t, AggregateSpec{WS: 24, WA: 24, Fold: countFold, OutputTs: WindowEndTs}, core.Noop{}, input...)
	if len(got) != 1 || got[0].Timestamp() != 24 {
		t.Fatalf("WindowEndTs output ts = %v, want [24]", timestamps(got))
	}
}

func TestAggregateGLProvenanceChain(t *testing.T) {
	input := seq(0, 30, 4, "car") // one full window [0,120)
	got := runAggregate(t, AggregateSpec{WS: 120, WA: 120, Fold: countFold}, &core.Genealog{}, input...)
	if len(got) != 1 {
		t.Fatalf("got %d windows, want 1", len(got))
	}
	m := core.MetaOf(got[0])
	if m.Kind() != core.KindAggregate {
		t.Fatalf("kind = %v, want AGGREGATE", m.Kind())
	}
	if m.U2() != input[0] || m.U1() != input[3] {
		t.Fatal("U2/U1 must be the earliest/latest window tuples")
	}
	// N chain: input[i].Next == input[i+1].
	for i := 0; i+1 < len(input); i++ {
		if core.MetaOf(input[i]).Next() != input[i+1] {
			t.Fatalf("N chain broken at %d", i)
		}
	}
	prov := core.FindProvenance(got[0])
	if len(prov) != 4 {
		t.Fatalf("provenance size = %d, want 4", len(prov))
	}
}

func TestAggregateGLProvenanceOverlappingWindows(t *testing.T) {
	// Sliding windows share tuples; every emitted window must traverse to
	// exactly its own contents.
	input := seq(0, 30, 8, "car")
	got := runAggregate(t, AggregateSpec{WS: 120, WA: 30, Fold: countFold}, &core.Genealog{}, input...)
	for _, w := range got {
		m := core.MetaOf(w)
		prov := core.FindProvenance(w)
		wantN := int(w.(*vTuple).Val)
		if len(prov) != wantN {
			t.Fatalf("window ts=%d: traversed %d tuples, want %d", w.Timestamp(), len(prov), wantN)
		}
		for _, p := range prov {
			ts := p.Timestamp()
			if !windowContains(w.Timestamp(), 120, ts) {
				t.Fatalf("window ts=%d: foreign tuple ts=%d in provenance", w.Timestamp(), ts)
			}
		}
		if m.Kind() != core.KindAggregate {
			t.Fatalf("kind = %v", m.Kind())
		}
	}
}

func TestAggregateGroupsChainedIndependently(t *testing.T) {
	input := []core.Tuple{
		vt(0, "a", 0), vt(1, "b", 0), vt(2, "a", 0), vt(3, "b", 0),
	}
	got := runAggregate(t, AggregateSpec{WS: 10, WA: 10, Key: keyOf, Fold: countFold}, &core.Genealog{}, input...)
	if len(got) != 2 {
		t.Fatalf("got %d windows, want 2", len(got))
	}
	// Group a: tuples 0 and 2 chained; group b: 1 and 3.
	if core.MetaOf(input[0]).Next() != input[2] || core.MetaOf(input[1]).Next() != input[3] {
		t.Fatal("N chains must be per-group")
	}
	for _, w := range got {
		if n := len(core.FindProvenance(w)); n != 2 {
			t.Fatalf("group window provenance = %d, want 2", n)
		}
	}
}

func TestAggregateSparseStreamSkipsEmptyWindows(t *testing.T) {
	// Two tuples a million time-units apart: the operator must not iterate
	// through every intermediate empty window (this test would time out).
	input := []core.Tuple{vt(0, "k", 1), vt(1_000_000, "k", 1)}
	got := runAggregate(t, AggregateSpec{WS: 10, WA: 5, Fold: countFold}, core.Noop{}, input...)
	for _, w := range got {
		if w.(*vTuple).Val == 0 {
			t.Fatal("empty windows must not be emitted")
		}
	}
	if len(got) != 4 { // 2 windows per tuple (WS/WA = 2)
		t.Fatalf("got %d windows, want 4: %v", len(got), timestamps(got))
	}
}

func TestAggregateNilFoldOutputSkipped(t *testing.T) {
	fold := func(window []core.Tuple, start, end int64, key string) core.Tuple { return nil }
	got := runAggregate(t, AggregateSpec{WS: 10, WA: 10, Fold: fold}, core.Noop{}, seq(0, 1, 5, "k")...)
	if len(got) != 0 {
		t.Fatalf("nil fold outputs must be skipped, got %d", len(got))
	}
}

func TestAggregateStimulusIsWindowMax(t *testing.T) {
	a, b := vt(0, "k", 0), vt(5, "k", 0)
	a.SetStimulus(10)
	b.SetStimulus(90)
	got := runAggregate(t, AggregateSpec{WS: 10, WA: 10, Fold: countFold}, core.Noop{}, a, b)
	if s := core.MetaOf(got[0]).Stimulus(); s != 90 {
		t.Fatalf("stimulus = %d, want 90", s)
	}
}

func TestAggregateSpecValidation(t *testing.T) {
	bad := []AggregateSpec{
		{WS: 0, WA: 1, Fold: countFold},
		{WS: 10, WA: 0, Fold: countFold},
		{WS: 5, WA: 10, Fold: countFold},
		{WS: 10, WA: 10},
	}
	for i, spec := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %d: the aggregate must panic on invalid spec", i)
				}
			}()
			newAggregate("a", NewStream("i", 1), NewStream("o", 1), spec, core.Noop{})
		}()
	}
}

// TestAggregateCoverageProperty: every input tuple appears in exactly
// ceil(WS/WA) windows once the stream is long enough (flushing included),
// and the union of all window provenance equals the input set.
func TestAggregateCoverageProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 4
		rng := rand.New(rand.NewSource(seed))
		var input []core.Tuple
		ts := int64(0)
		for i := 0; i < n; i++ {
			ts += 1 + rng.Int63n(4)
			input = append(input, vt(ts, "k", int64(i)))
		}
		in := feed(input...)
		out := NewStream("out", 4096)
		agg := newAggregate("a", in, out, AggregateSpec{WS: 12, WA: 4, Fold: countFold}, &core.Genealog{})
		if err := agg.Run(context.Background()); err != nil {
			return false
		}
		seen := make(map[core.Tuple]int)
		for batch := range out.ch {
			for _, w := range batch {
				if core.IsHeartbeat(w) {
					continue
				}
				for _, p := range core.FindProvenance(w) {
					seen[p]++
				}
			}
		}
		for _, in := range input {
			if seen[in] != 3 { // WS/WA = 3 windows per tuple
				return false
			}
		}
		return len(seen) == len(input)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// oracleWindow is one expected aggregate output: a group's window and the
// tuples it holds, in arrival order.
type oracleWindow struct {
	start int64
	key   string
	win   []core.Tuple
}

// aggregateOracle computes an aggregate's outputs directly from the input:
// every window [s, s+ws) with s a multiple of wa, of every group holding
// tuples in it, in (window start, group key) order.
func aggregateOracle(input []core.Tuple, ws, wa int64, key func(core.Tuple) string) []oracleWindow {
	groups := make(map[string][]core.Tuple)
	for _, t := range input {
		if core.IsHeartbeat(t) {
			continue
		}
		k := ""
		if key != nil {
			k = key(t)
		}
		groups[k] = append(groups[k], t)
	}
	var want []oracleWindow
	for k, g := range groups {
		first, last := g[0].Timestamp(), g[len(g)-1].Timestamp()
		for s := (floorDiv(first, wa) - ws/wa - 1) * wa; s <= last; s += wa {
			var win []core.Tuple
			for _, t := range g {
				if t.Timestamp() >= s && t.Timestamp() < s+ws {
					win = append(win, t)
				}
			}
			if len(win) > 0 {
				want = append(want, oracleWindow{start: s, key: k, win: win})
			}
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].start != want[j].start {
			return want[i].start < want[j].start
		}
		return want[i].key < want[j].key
	})
	return want
}

// TestAggregateBruteForceProperty compares the aggregate, on declared
// kernels and on the spec derived from its row closures, against windows and
// groups computed directly: the outputs, their order, timestamps, values,
// stimuli and GL contribution sets — keyed and unkeyed, tumbling and
// sliding, both output timestamp policies, with interleaved heartbeats, at
// batch sizes 1, 7 and 64.
func TestAggregateBruteForceProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ws := int64(1 + rng.Intn(12))
		wa := int64(1 + rng.Intn(int(ws)))
		if seed%2 == 0 {
			wa = ws // tumbling
		}
		for _, keyed := range []bool{false, true} {
			for _, policy := range []OutputTsPolicy{WindowStartTs, WindowEndTs} {
				for _, batch := range []int{1, 7, 64} {
					for _, declared := range []bool{false, true} {
						spec := AggregateSpec{WS: ws, WA: wa, Fold: sumFold, OutputTs: policy}
						col := AggColSpec{Schema: vSchema(), Fold: vecSumFold}
						if keyed {
							spec.Key, col.Key = keyOf, vecKeyKernel
						}
						if !declared {
							col = DeriveAggColSpec(spec)
						}
						input := aggInput(200, []string{"a", "b", "c"}, seed)
						stim := rand.New(rand.NewSource(seed))
						for _, in := range input {
							core.MetaOf(in).MergeStimulus(stim.Int63n(1000))
						}
						out := NewStream("out", 0)
						a := NewColAggregate("a", feedBatched(batch, input...), out, spec, col, nil, nil, &core.Genealog{})
						done := make(chan []core.Tuple)
						go func() { done <- drain(t, out) }()
						runOps(t, a)
						checkOracle(t, <-done, aggregateOracle(input, ws, wa, spec.Key), ws, policy)
					}
				}
			}
		}
	}
}

// TestAggregateFoldsOnlyTheClosingWindow pins the invariant emitDue's upper
// bound rests on: a window closes before any tuple at or past its end is
// buffered, so the segment a fold receives, which runs to its group's last
// buffered row, holds no row outside [start, end). It covers declared and
// derived specs, keyed and unkeyed, tumbling and sliding windows,
// interleaved heartbeats, end-of-stream flushes and batches 1/7/64.
func TestAggregateFoldsOnlyTheClosingWindow(t *testing.T) {
	check := func(ts []int64, start, end int64) {
		for _, x := range ts {
			if x < start || x >= end {
				t.Errorf("window [%d, %d) folds a row at %d", start, end, x)
				return
			}
		}
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ws := int64(1 + rng.Intn(12))
		wa := int64(1 + rng.Intn(int(ws)))
		if seed%2 == 0 {
			wa = ws
		}
		for _, keyed := range []bool{false, true} {
			for _, batch := range []int{1, 7, 64} {
				for _, declared := range []bool{false, true} {
					spec := AggregateSpec{WS: ws, WA: wa, Fold: func(w []core.Tuple, start, end int64, key string) core.Tuple {
						ts := make([]int64, len(w))
						for i, r := range w {
							ts[i] = r.Timestamp()
						}
						check(ts, start, end)
						return sumFold(w, start, end, key)
					}}
					col := AggColSpec{Schema: vSchema(), Fold: func(seg *ColSeg, start, end int64, key string) core.Tuple {
						check(seg.Timestamps(), start, end)
						return vecSumFold(seg, start, end, key)
					}}
					if keyed {
						spec.Key, col.Key = keyOf, vecKeyKernel
					}
					if !declared {
						col = DeriveAggColSpec(spec)
					}
					out := NewStream("out", 0)
					a := NewColAggregate("a", feedBatched(batch, aggInput(200, []string{"a", "b", "c"}, seed)...), out, spec, col, nil, nil, &core.Genealog{})
					done := make(chan []core.Tuple)
					go func() { done <- drain(t, out) }()
					runOps(t, a)
					if len(<-done) == 0 {
						t.Fatal("the aggregate emitted nothing")
					}
				}
			}
		}
	}
}

// checkOracle asserts the aggregate's outputs match the oracle's windows one
// for one, in order.
func checkOracle(t *testing.T, got []core.Tuple, want []oracleWindow, ws int64, policy OutputTsPolicy) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d outputs, oracle %d", len(got), len(want))
	}
	for i, w := range want {
		o := got[i].(*vTuple)
		ts, sum, stim := w.start, int64(0), int64(0)
		if policy == WindowEndTs {
			ts += ws
		}
		for _, in := range w.win {
			sum += in.(*vTuple).Val
			stim = max(stim, core.MetaOf(in).Stimulus())
		}
		if o.Timestamp() != ts || o.Key != w.key || o.Val != sum || core.MetaOf(o).Stimulus() != stim {
			t.Fatalf("output %d: ts %d key %q val %d stim %d, oracle %d %q %d %d",
				i, o.Timestamp(), o.Key, o.Val, core.MetaOf(o).Stimulus(), ts, w.key, sum, stim)
		}
		prov := core.FindProvenance(o)
		if len(prov) != len(w.win) {
			t.Fatalf("output %d: %d contributors, oracle %d", i, len(prov), len(w.win))
		}
		for k := range prov {
			if prov[k] != w.win[k] {
				t.Fatalf("output %d: contributor %d differs from the oracle's", i, k)
			}
		}
	}
}

func TestAggregateSelectiveProvenance(t *testing.T) {
	// A max-aggregation where only the maximum tuple contributes (the
	// paper's future-work item (i)).
	spec := AggregateSpec{
		WS: 10, WA: 10,
		Fold: func(w []core.Tuple, start, end int64, key string) core.Tuple {
			max := w[0].(*vTuple)
			for _, x := range w {
				if v := x.(*vTuple); v.Val > max.Val {
					max = v
				}
			}
			return vt(0, key, max.Val)
		},
		Contributors: func(w []core.Tuple) []core.Tuple {
			max := w[0]
			for _, x := range w {
				if x.(*vTuple).Val > max.(*vTuple).Val {
					max = x
				}
			}
			return []core.Tuple{max}
		},
	}
	input := []core.Tuple{vt(0, "k", 3), vt(2, "k", 9), vt(5, "k", 1)}
	for _, in := range input {
		core.MetaOf(in).SetKind(core.KindSource)
	}
	got := runAggregate(t, spec, &core.Genealog{}, input...)
	if len(got) != 1 || got[0].(*vTuple).Val != 9 {
		t.Fatalf("max window output = %v", got)
	}
	prov := core.FindProvenance(got[0])
	if len(prov) != 1 {
		t.Fatalf("selective provenance size = %d, want 1", len(prov))
	}
	if prov[0] != input[1] {
		t.Fatalf("selective provenance must be the max tuple, got %v", prov[0])
	}
}

func TestAggregateSelectiveProvenanceSubsetChain(t *testing.T) {
	// Selecting several tuples builds a wrapper chain covering exactly the
	// subset, even across overlapping windows.
	spec := AggregateSpec{
		WS: 8, WA: 4,
		Fold: countFold,
		Contributors: func(w []core.Tuple) []core.Tuple {
			var odd []core.Tuple
			for _, x := range w {
				if x.(*vTuple).Val%2 == 1 {
					odd = append(odd, x)
				}
			}
			return odd
		},
	}
	input := seq(0, 1, 12, "k")
	for _, in := range input {
		core.MetaOf(in).SetKind(core.KindSource)
	}
	got := runAggregate(t, spec, &core.Genealog{}, input...)
	if len(got) == 0 {
		t.Fatal("no windows emitted")
	}
	for _, w := range got {
		for _, p := range core.FindProvenance(w) {
			v := p.(*vTuple)
			if v.Val%2 != 1 {
				t.Fatalf("even tuple %d leaked into selective provenance", v.Val)
			}
			if !windowContains(w.Timestamp(), 8, p.Timestamp()) {
				t.Fatalf("foreign tuple ts=%d in window ts=%d", p.Timestamp(), w.Timestamp())
			}
		}
	}
}

func TestAggregateSelectiveProvenanceEmptySubsetStillEmits(t *testing.T) {
	spec := AggregateSpec{
		WS: 10, WA: 10,
		Fold:         countFold,
		Contributors: func(w []core.Tuple) []core.Tuple { return nil },
	}
	got := runAggregate(t, spec, &core.Genealog{}, seq(0, 1, 3, "k")...)
	if len(got) != 1 {
		t.Fatalf("windows = %d, want 1", len(got))
	}
	if n := len(core.FindProvenance(got[0])); n != 1 {
		// An uninstrumented output is its own terminal in the traversal.
		t.Fatalf("empty-subset provenance = %d, want 1 (the output itself)", n)
	}
}

func TestAggregateSelectiveProvenanceBaselineAnnotations(t *testing.T) {
	// The same selector must work under BL: the output's annotation is the
	// subset's annotation union.
	ids := core.NewIDGen(1)
	instr := &blLike{ids: ids}
	spec := AggregateSpec{
		WS: 10, WA: 10,
		Fold: countFold,
		Contributors: func(w []core.Tuple) []core.Tuple {
			return w[:1]
		},
	}
	input := seq(0, 1, 3, "k")
	for _, in := range input {
		instr.OnSource(in)
	}
	got := runAggregate(t, spec, instr, input...)
	ann := core.MetaOf(got[0]).Annotation()
	if len(ann) != 1 || ann[0] != core.MetaOf(input[0]).ID() {
		t.Fatalf("selective BL annotation = %v, want the first tuple's ID", ann)
	}
}

// blLike is a minimal annotation-copying instrumenter for the selective
// provenance test (avoiding an import cycle with internal/baseline).
type blLike struct {
	core.Noop
	ids *core.IDGen
}

func (b *blLike) OnSource(t core.Tuple) {
	m := core.MetaOf(t)
	id := b.ids.Next()
	m.SetID(id)
	m.SetAnnotation([]uint64{id})
}

func (b *blLike) OnMap(out, in core.Tuple) {
	src := core.MetaOf(in).Annotation()
	cp := make([]uint64, len(src))
	copy(cp, src)
	core.MetaOf(out).SetAnnotation(cp)
}

func (b *blLike) OnAggregateEmit(out core.Tuple, window []core.Tuple) {
	var ann []uint64
	for _, w := range window {
		ann = append(ann, core.MetaOf(w).Annotation()...)
	}
	core.MetaOf(out).SetAnnotation(ann)
}
