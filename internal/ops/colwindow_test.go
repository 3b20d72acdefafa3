package ops

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"genealog/internal/core"
)

// vecKeyKernel is keyOf as a kernel.
func vecKeyKernel(c *ColBatch, sel []int, dst []string) []string {
	keys := c.Strings(vFieldKey)
	for _, pos := range sel {
		dst = append(dst, keys[pos])
	}
	return dst
}

// vecSumFold is sumFold as a fold kernel over the val column.
func vecSumFold(seg *ColSeg, start, end int64, key string) core.Tuple {
	var sum int64
	for _, v := range seg.Int64s(vFieldVal) {
		sum += v
	}
	return vt(0, key, sum)
}

// aggInput builds a keyed input with interleaved heartbeats and occasional
// timestamp ties.
func aggInput(n int, keys []string, seed int64) []core.Tuple {
	rng := rand.New(rand.NewSource(seed))
	var out []core.Tuple
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += rng.Int63n(3)
		if rng.Intn(11) == 0 {
			out = append(out, core.NewHeartbeat(ts))
			continue
		}
		out = append(out, vt(ts, keys[rng.Intn(len(keys))], rng.Int63n(20)))
	}
	return out
}

// compareStreams asserts the two drained output streams — one from the
// spec derived from the row closures, one from the declared kernels — are
// identical: the same data/heartbeat sequence and timestamps, same
// payloads, and under GL the same contribution sets and stimuli.
func compareStreams(t *testing.T, row, vec []core.Tuple, gl bool) {
	t.Helper()
	if len(row) == 0 || len(row) != len(vec) {
		t.Fatalf("%d row outputs, %d vectorized", len(row), len(vec))
	}
	for i := range row {
		if core.IsHeartbeat(row[i]) != core.IsHeartbeat(vec[i]) || row[i].Timestamp() != vec[i].Timestamp() {
			t.Fatalf("output %d: row ts %d (hb=%v), vec ts %d (hb=%v)", i,
				row[i].Timestamp(), core.IsHeartbeat(row[i]), vec[i].Timestamp(), core.IsHeartbeat(vec[i]))
		}
		if core.IsHeartbeat(row[i]) {
			continue
		}
		r, v := row[i].(*vTuple), vec[i].(*vTuple)
		if r.Val != v.Val || r.Key != v.Key {
			t.Fatalf("output %d: row %d/%s, vec %d/%s", i, r.Val, r.Key, v.Val, v.Key)
		}
		if !gl {
			continue
		}
		pr, pv := core.FindProvenance(row[i]), core.FindProvenance(vec[i])
		if len(pr) != len(pv) {
			t.Fatalf("output %d: provenance differs (row %d links, vec %d)", i, len(pr), len(pv))
		}
		for k := range pr {
			a, aok := pr[k].(*vTuple)
			b, bok := pv[k].(*vTuple)
			if !aok || !bok || a.Val != b.Val || a.Key != b.Key || a.Timestamp() != b.Timestamp() {
				t.Fatalf("output %d contributor %d: row %v, vec %v", i, k, pr[k], pv[k])
			}
		}
		if rm, vm := core.MetaOf(row[i]), core.MetaOf(vec[i]); rm.Stimulus() != vm.Stimulus() {
			t.Fatalf("output %d: stimulus row %d, vec %d", i, rm.Stimulus(), vm.Stimulus())
		}
	}
}

// TestColAggregateMatchesRowAggregate: the declared fold and key kernels
// must reproduce the output stream of the spec derived from the row
// closures exactly — window outputs AND watermark heartbeats, in sequence —
// keyed and unkeyed, tumbling and sliding, under NP and GL, across batch
// sizes.
func TestColAggregateMatchesRowAggregate(t *testing.T) {
	cases := []struct {
		name   string
		ws, wa int64
		keyed  bool
		policy OutputTsPolicy
	}{
		{"tumbling-keyed", 8, 8, true, WindowStartTs},
		{"sliding-keyed", 12, 4, true, WindowStartTs},
		{"tumbling-unkeyed", 8, 8, false, WindowStartTs},
		{"sliding-end-ts", 10, 5, true, WindowEndTs},
	}
	for _, tc := range cases {
		for _, mode := range []string{"NP", "GL"} {
			for _, batch := range []int{1, 7, 64} {
				t.Run(tc.name+"/"+mode, func(t *testing.T) {
					instr := func() core.Instrumenter {
						if mode == "GL" {
							return &core.Genealog{}
						}
						return core.Noop{}
					}
					spec := AggregateSpec{WS: tc.ws, WA: tc.wa, Fold: sumFold, OutputTs: tc.policy}
					col := AggColSpec{Schema: vSchema(), Fold: vecSumFold}
					if tc.keyed {
						spec.Key = keyOf
						col.Key = vecKeyKernel
					}
					input := aggInput(300, []string{"a", "b", "c"}, 42)

					rowOut := NewStream("out", 0)
					ra := newAggregate("agg", feedBatched(batch, input...), rowOut, spec, instr())
					rowDone := make(chan []core.Tuple)
					go func() { rowDone <- drainAll(t, rowOut) }()
					runOps(t, ra)
					row := <-rowDone

					vecOut := NewStream("out", 0)
					va := NewColAggregate("agg", feedBatched(batch, input...), vecOut, spec, col, nil, nil, instr())
					vecDone := make(chan []core.Tuple)
					go func() { vecDone <- drainAll(t, vecOut) }()
					runOps(t, va)
					vec := <-vecDone

					compareStreams(t, row, vec, mode == "GL")
				})
			}
		}
	}
}

// TestColAggregateWithPrefixMatchesRowPrefix: a columnar prefix inlined into
// the aggregate (the planner's hoisted shard-lane stages) must produce the
// same stream as the same prefix in row form on the derived spec — dropped
// tuples advance the watermark at their drop-time timestamps, mapped
// survivors window identically.
func TestColAggregateWithPrefixMatchesRowPrefix(t *testing.T) {
	rowPrefix := []FusedStage{
		{Name: "keep-even", Kind: StageFilter, Pred: func(tp core.Tuple) bool { return tp.(*vTuple).Val%2 == 0 }},
		{Name: "double", Kind: StageMap, Map: func(tp core.Tuple, emit func(core.Tuple)) {
			v := tp.(*vTuple)
			emit(vt(v.Timestamp(), v.Key, v.Val*2))
		}},
	}
	colPrefix := []ColStage{
		{Name: "keep-even", Kind: StageFilter, Schema: vSchema(), Filter: func(c *ColBatch, sel []int, dst []int) []int {
			vals := c.Int64s(vFieldVal)
			for _, pos := range sel {
				if vals[pos]%2 == 0 {
					dst = append(dst, pos)
				}
			}
			return dst
		}},
		{Name: "double", Kind: StageMap, Schema: vSchema(), Map: func(c *ColBatch, sel []int, dst []core.Tuple) []core.Tuple {
			ts, vals, keys := c.Timestamps(), c.Int64s(vFieldVal), c.Strings(vFieldKey)
			for _, pos := range sel {
				dst = append(dst, vt(ts[pos], keys[pos], vals[pos]*2))
			}
			return dst
		}},
	}
	spec := AggregateSpec{WS: 8, WA: 4, Key: keyOf, Fold: sumFold}
	col := AggColSpec{Schema: vSchema(), Key: vecKeyKernel, Fold: vecSumFold}
	input := aggInput(300, []string{"a", "b"}, 7)
	for _, mode := range []string{"NP", "GL"} {
		t.Run(mode, func(t *testing.T) {
			instr := func() core.Instrumenter {
				if mode == "GL" {
					return &core.Genealog{}
				}
				return core.Noop{}
			}
			rowOut := NewStream("out", 0)
			ra := NewColAggregate("agg", feedBatched(7, input...), rowOut, spec, DeriveAggColSpec(spec), nil, rowPrefix, instr())
			if ra.Stages() != 2 {
				t.Fatalf("row prefix: Stages() = %d, want 2", ra.Stages())
			}
			rowDone := make(chan []core.Tuple)
			go func() { rowDone <- drainAll(t, rowOut) }()
			runOps(t, ra)
			row := <-rowDone

			vecOut := NewStream("out", 0)
			va := NewColAggregate("agg", feedBatched(7, input...), vecOut, spec, col, colPrefix, nil, instr())
			if va.Stages() != 2 {
				t.Fatalf("Stages() = %d, want 2", va.Stages())
			}
			vecDone := make(chan []core.Tuple)
			go func() { vecDone <- drainAll(t, vecOut) }()
			runOps(t, va)
			vec := <-vecDone

			compareStreams(t, row, vec, mode == "GL")
		})
	}
}

// joinSides builds two keyed input sides with overlapping keys and ties.
func joinSides(n int, seed int64) (left, right []core.Tuple) {
	rng := rand.New(rand.NewSource(seed))
	keys := []string{"k1", "k2", "k3"}
	mk := func() []core.Tuple {
		var out []core.Tuple
		ts := int64(0)
		for i := 0; i < n; i++ {
			ts += rng.Int63n(3)
			if rng.Intn(13) == 0 {
				out = append(out, core.NewHeartbeat(ts))
				continue
			}
			out = append(out, vt(ts, keys[rng.Intn(len(keys))], rng.Int63n(12)))
		}
		return out
	}
	return mk(), mk()
}

// TestColJoinMatchesRowJoin: the declared probe spec — hash probe alone, or
// hash probe plus residual kernels — must reproduce the output stream of
// the spec derived from the row predicate exactly, under NP and GL.
func TestColJoinMatchesRowJoin(t *testing.T) {
	combine := func(l, r core.Tuple) core.Tuple {
		return vt(0, l.(*vTuple).Key, l.(*vTuple).Val*100+r.(*vTuple).Val)
	}
	residualPred := func(l, r core.Tuple) bool {
		d := l.(*vTuple).Val - r.(*vTuple).Val
		return d >= -3 && d <= 3
	}
	cases := []struct {
		name    string
		rowPred func(l, r core.Tuple) bool
		col     JoinColSpec
	}{
		{
			name:    "equi",
			rowPred: func(l, r core.Tuple) bool { return l.(*vTuple).Key == r.(*vTuple).Key },
			col:     JoinColSpec{},
		},
		{
			name: "residual",
			rowPred: func(l, r core.Tuple) bool {
				return l.(*vTuple).Key == r.(*vTuple).Key && residualPred(l, r)
			},
			col: JoinColSpec{
				Left: vSchema(), Right: vSchema(),
				ResidualL: func(tp core.Tuple, cand *ColSeg, sel []int, dst []int) []int {
					v := tp.(*vTuple).Val
					vals := cand.Int64s(vFieldVal)
					for _, pos := range sel {
						if d := v - vals[pos]; d >= -3 && d <= 3 {
							dst = append(dst, pos)
						}
					}
					return dst
				},
				ResidualR: func(tp core.Tuple, cand *ColSeg, sel []int, dst []int) []int {
					v := tp.(*vTuple).Val
					vals := cand.Int64s(vFieldVal)
					for _, pos := range sel {
						if d := vals[pos] - v; d >= -3 && d <= 3 {
							dst = append(dst, pos)
						}
					}
					return dst
				},
			},
		},
	}
	for _, tc := range cases {
		for _, mode := range []string{"NP", "GL"} {
			for _, batch := range []int{1, 7} {
				t.Run(tc.name+"/"+mode, func(t *testing.T) {
					instr := func() core.Instrumenter {
						if mode == "GL" {
							return &core.Genealog{}
						}
						return core.Noop{}
					}
					spec := JoinSpec{
						WS: 6, Predicate: tc.rowPred, Combine: combine,
						LeftKey: keyOf, RightKey: keyOf,
					}
					left, right := joinSides(250, 11)

					rowOut := NewStream("out", 0)
					rj := newJoin("j", feedBatched(batch, left...), feedBatched(batch, right...), rowOut, spec, instr())
					rowDone := make(chan []core.Tuple)
					go func() { rowDone <- drainAll(t, rowOut) }()
					runOps(t, rj)
					row := <-rowDone

					vecOut := NewStream("out", 0)
					vj := NewColJoin("j", feedBatched(batch, left...), feedBatched(batch, right...), vecOut, spec, tc.col, nil, nil, instr())
					vecDone := make(chan []core.Tuple)
					go func() { vecDone <- drainAll(t, vecOut) }()
					runOps(t, vj)
					vec := <-vecDone

					compareStreams(t, row, vec, mode == "GL")
				})
			}
		}
	}
}

// TestColStatefulValidation: construction rejects inconsistent columnar
// specs with a panic, like the other operators.
func TestColStatefulValidation(t *testing.T) {
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
	l, r := NewStream("l", 0), NewStream("r", 0)
	keyedAgg := AggregateSpec{WS: 4, WA: 4, Key: keyOf, Fold: sumFold}
	keyedJoin := JoinSpec{WS: 4,
		Predicate: func(l, r core.Tuple) bool { return true },
		Combine:   func(l, r core.Tuple) core.Tuple { return vt(0, "", 0) },
		LeftKey:   keyOf, RightKey: keyOf}
	expectPanic("agg without schema", func() {
		NewColAggregate("a", in, out, keyedAgg, AggColSpec{Fold: vecSumFold, Key: vecKeyKernel}, nil, nil, core.Noop{})
	})
	expectPanic("agg without fold", func() {
		NewColAggregate("a", in, out, keyedAgg, AggColSpec{Schema: vSchema(), Key: vecKeyKernel}, nil, nil, core.Noop{})
	})
	expectPanic("agg key mismatch", func() {
		NewColAggregate("a", in, out, keyedAgg, AggColSpec{Schema: vSchema(), Fold: vecSumFold}, nil, nil, core.Noop{})
	})
	expectPanic("agg with both prefix forms", func() {
		NewColAggregate("a", in, out, keyedAgg, DeriveAggColSpec(keyedAgg),
			[]ColStage{{Name: "f", Kind: StageFilter, Schema: vSchema(), Filter: func(c *ColBatch, sel, dst []int) []int { return dst }}},
			[]FusedStage{{Name: "f", Kind: StageFilter, Pred: func(core.Tuple) bool { return true }}}, core.Noop{})
	})
	expectPanic("join unkeyed without residuals", func() {
		unkeyed := keyedJoin
		unkeyed.LeftKey, unkeyed.RightKey = nil, nil
		NewColJoin("j", l, r, out, unkeyed, JoinColSpec{}, nil, nil, core.Noop{})
	})
	expectPanic("join lone residual", func() {
		NewColJoin("j", l, r, out, keyedJoin, JoinColSpec{
			Left: vSchema(), Right: vSchema(),
			ResidualL: func(t core.Tuple, cand *ColSeg, sel, dst []int) []int { return dst },
		}, nil, nil, core.Noop{})
	})
	expectPanic("join residual without schemas", func() {
		probe := func(t core.Tuple, cand *ColSeg, sel, dst []int) []int { return dst }
		NewColJoin("j", l, r, out, keyedJoin, JoinColSpec{ResidualL: probe, ResidualR: probe}, nil, nil, core.Noop{})
	})
}

// tumblingAgg returns a keyed tumbling ColAggregate over vTuples for tests
// that drive processRun directly. Its output stream batches up to 4096
// tuples, so the emissions of a few windows stay pending without a consumer.
func tumblingAgg(ws int64, instr core.Instrumenter) (*ColAggregate, *Stream) {
	out := NewBatchedStream("out", 1<<12, 1<<12)
	spec := AggregateSpec{WS: ws, WA: ws, Key: keyOf, Fold: sumFold}
	col := AggColSpec{Schema: vSchema(), Key: vecKeyKernel, Fold: vecSumFold}
	return NewColAggregate("agg", NewStream("in", 0), out, spec, col, nil, nil, instr), out
}

// windowRows returns the input of tumbling window w, [w*ws, (w+1)*ws): at
// every event time one tuple per key, in key order.
func windowRows(w, ws int64, keys []string) []core.Tuple {
	rows := make([]core.Tuple, 0, int(ws)*len(keys))
	for ts := w * ws; ts < (w+1)*ws; ts++ {
		for i, k := range keys {
			rows = append(rows, vt(ts, k, ts+int64(i)))
		}
	}
	return rows
}

// ingestRuns feeds rows to a through processRun in runs of 64, the way Run
// hands it heartbeat-free slices of a batch.
func ingestRuns(t testing.TB, a *ColAggregate, rows []core.Tuple) {
	t.Helper()
	for lo := 0; lo < len(rows); lo += 64 {
		if err := a.processRun(context.Background(), rows[lo:min(lo+64, len(rows))]); err != nil {
			t.Fatal(err)
		}
	}
}

// drainPending publishes and consumes everything out holds, so the
// test keeps no reference to the emitted tuples (whose GL links point into
// the windows they folded).
func drainPending(t testing.TB, out *Stream) int {
	t.Helper()
	ctx := context.Background()
	if err := out.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	n := 0
	for out.CanRecv() {
		b, ok, err := out.RecvBatch(ctx)
		if err != nil || !ok {
			t.Fatalf("drain: ok=%v err=%v", ok, err)
		}
		n += len(b)
	}
	return n
}

// TestColAggregateRecycledWindowsPinNothing: the windows a tumbling
// ColAggregate retires to its free list must not keep any buffered tuple
// reachable (challenge C2) — once the windows have closed and their outputs
// are gone, the GC reclaims every tuple they held.
func TestColAggregateRecycledWindowsPinNothing(t *testing.T) {
	const ws, windows = 16, 5
	keys := []string{"a", "b", "c", "d"}
	a, out := tumblingAgg(ws, &core.Genealog{})
	var reclaimed atomic.Int64
	total := 0
	for w := int64(0); w < windows; w++ {
		rows := windowRows(w, ws, keys)
		for _, r := range rows {
			runtime.AddCleanup(r.(*vTuple), func(int) { reclaimed.Add(1) }, 0)
		}
		total += len(rows)
		ingestRuns(t, a, rows)
	}
	// One untracked tuple past the last window closes it, recycles a
	// window for its own group and rebinds the operator's run scratch.
	ingestRuns(t, a, []core.Tuple{vt(windows*ws, "a", 0)})
	if n := drainPending(t, out); n < windows*len(keys) {
		t.Fatalf("drained %d outputs, want at least %d window results", n, windows*len(keys))
	}
	if len(a.free) == 0 {
		t.Fatal("no window on the free list after the tumbling windows closed")
	}
	for i := 0; i < 100 && reclaimed.Load() < int64(total); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := reclaimed.Load(); got != int64(total) {
		t.Fatalf("%d of %d buffered tuples reclaimed with %d windows on the free list", got, total, len(a.free))
	}
	runtime.KeepAlive(a)
}
