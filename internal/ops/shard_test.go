package ops

import (
	"context"
	"strconv"
	"testing"

	"genealog/internal/core"
)

// runShardSubgraph materialises a sharded aggregate or join subgraph and
// runs it together with the given extra operators.
func runShardSubgraph(t *testing.T, operators []Operator, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	runOps(t, operators...)
}

func TestPartitionRoutesByKeyAndBroadcastsWatermarks(t *testing.T) {
	in := NewStream("in", 16)
	outs := []*Stream{NewStream("s0", 16), NewStream("s1", 16), NewStream("s2", 16)}
	p := NewPartition("part", in, outs, keyOf)

	tuples := []core.Tuple{
		vt(1, "a", 1), vt(1, "b", 2), vt(2, "c", 3), vt(3, "a", 4),
	}
	go func() {
		for _, tp := range tuples {
			in.ch <- Batch{tp}
		}
		in.Close()
	}()
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	perShard := make([][]core.Tuple, len(outs))
	for i, out := range outs {
		perShard[i] = drainAll(t, out)
	}

	// Every data tuple lands on the shard its key hashes to, and nowhere else.
	for i, got := range perShard {
		lastTs := int64(-1 << 62)
		for _, tp := range got {
			if tp.Timestamp() < lastTs {
				t.Fatalf("shard %d: timestamps went backwards: %v", i, timestamps(got))
			}
			lastTs = tp.Timestamp()
			if core.IsHeartbeat(tp) {
				continue
			}
			if want := shardIndex(keyOf(tp), len(outs)); want != i {
				t.Fatalf("tuple with key %q on shard %d, want %d", keyOf(tp), i, want)
			}
		}
	}

	// Each shard has seen the final watermark (ts=3), either as its own data
	// tuple or as a broadcast heartbeat, so no shard can lag its siblings.
	for i, got := range perShard {
		if len(got) == 0 || got[len(got)-1].Timestamp() != 3 {
			t.Fatalf("shard %d did not observe the final watermark: %v", i, timestamps(got))
		}
	}

	// The data tuples, re-merged, are exactly the input.
	var data []core.Tuple
	for _, got := range perShard {
		for _, tp := range got {
			if !core.IsHeartbeat(tp) {
				data = append(data, tp)
			}
		}
	}
	if len(data) != len(tuples) {
		t.Fatalf("partition dropped or duplicated tuples: got %d, want %d", len(data), len(tuples))
	}
}

func TestFanInRestoresKeyOrderAndUnwraps(t *testing.T) {
	// Two shards emit tagged same-timestamp outputs whose keys interleave;
	// the fan-in must produce the global (ts, key) order a serial operator
	// would have emitted, with the tags stripped.
	s0 := NewStream("s0", 8)
	s1 := NewStream("s1", 8)
	out := NewStream("out", 16)
	s0.ch <- Batch{&shardTagged{inner: vt(1, "a", 0), key: "a"}}
	s0.ch <- Batch{&shardTagged{inner: vt(1, "c", 0), key: "c"}}
	s0.ch <- Batch{&shardTagged{inner: vt(2, "a", 0), key: "a"}}
	s0.Close()
	s1.ch <- Batch{&shardTagged{inner: vt(1, "b", 0), key: "b"}}
	s1.ch <- Batch{&shardTagged{inner: vt(2, "d", 0), key: "d"}}
	s1.Close()

	f := NewFanIn("merge", []*Stream{s0, s1}, out)
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := drain(t, out)
	want := []string{"1/a", "1/b", "1/c", "2/a", "2/d"}
	if len(got) != len(want) {
		t.Fatalf("fan-in emitted %d tuples, want %d", len(got), len(want))
	}
	for i, tp := range got {
		v, ok := tp.(*vTuple)
		if !ok {
			t.Fatalf("fan-in leaked a tagged tuple: %T", tp)
		}
		if s := strconv.FormatInt(v.Timestamp(), 10) + "/" + v.Key; s != want[i] {
			t.Fatalf("position %d: got %s, want %s", i, s, want[i])
		}
	}
}

func TestShardAggregateMatchesSerialByteForByte(t *testing.T) {
	// A keyed sliding-window aggregate over several keys with overlapping
	// windows; the sharded execution must reproduce the serial operator's
	// sink-observable sequence exactly, at every parallelism level.
	build := func() []core.Tuple {
		var tuples []core.Tuple
		for ts := int64(0); ts < 40; ts++ {
			for k := 0; k < 7; k++ {
				if (int(ts)+k)%3 == 0 {
					continue // some keys skip some timestamps
				}
				tuples = append(tuples, vt(ts, "k"+strconv.Itoa(k), ts+int64(k)))
			}
		}
		return tuples
	}
	spec := AggregateSpec{WS: 6, WA: 2, Key: keyOf, Fold: sumFold}

	serialOut := func() []core.Tuple {
		in := feed(build()...)
		out := NewStream("out", 1024)
		a := newAggregate("agg", in, out, spec, core.Noop{})
		if err := a.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return drain(t, out)
	}()

	for _, parallelism := range []int{2, 3, 4} {
		in := feed(build()...)
		out := NewStream("out", 4096)
		operators, err := ShardAggregateCfg("agg", in, out, spec, core.Noop{}, parallelism, 64, 1, ShardConfig{Agg: DeriveAggColSpec(spec)})
		runShardSubgraph(t, operators, err)
		got := drain(t, out)
		if len(got) != len(serialOut) {
			t.Fatalf("parallelism %d: %d outputs, want %d", parallelism, len(got), len(serialOut))
		}
		for i := range got {
			g, w := got[i].(*vTuple), serialOut[i].(*vTuple)
			if g.Timestamp() != w.Timestamp() || g.Key != w.Key || g.Val != w.Val {
				t.Fatalf("parallelism %d: output %d is %d/%s/%d, want %d/%s/%d",
					parallelism, i, g.Timestamp(), g.Key, g.Val, w.Timestamp(), w.Key, w.Val)
			}
		}
	}
}

func TestShardJoinMatchesSerialExactly(t *testing.T) {
	// An equi-join sharded by key must reproduce the serial join's output
	// sequence byte for byte: the serial join orders same-timestamp matches
	// by (timestamp, left key, right key), each shard emits an
	// ascending-key subsequence of that, and the fan-in's (timestamp,
	// partition key) merge re-interleaves them into exactly the serial
	// sequence. Regression test for the same-timestamp emission-order
	// parity that keeps Q4 byte-identical across all plans.
	buildSide := func(side int64) []core.Tuple {
		var tuples []core.Tuple
		for ts := int64(0); ts < 30; ts++ {
			for k := 0; k < 5; k++ {
				tuples = append(tuples, vt(ts, "k"+strconv.Itoa(k), side*1000+ts))
			}
		}
		return tuples
	}
	spec := JoinSpec{
		WS:       2,
		LeftKey:  keyOf,
		RightKey: keyOf,
		Predicate: func(l, r core.Tuple) bool {
			return l.(*vTuple).Key == r.(*vTuple).Key && l.Timestamp() < r.Timestamp()
		},
		Combine: func(l, r core.Tuple) core.Tuple {
			return vt(0, l.(*vTuple).Key, l.(*vTuple).Val*10000+r.(*vTuple).Val)
		},
	}
	render := func(tuples []core.Tuple) []string {
		out := make([]string, len(tuples))
		for i, tp := range tuples {
			v := tp.(*vTuple)
			out[i] = strconv.FormatInt(v.Timestamp(), 10) + "/" + v.Key + "/" + strconv.FormatInt(v.Val, 10)
		}
		return out
	}

	serial := func() []core.Tuple {
		left, right := feed(buildSide(1)...), feed(buildSide(2)...)
		out := NewStream("out", 1<<14)
		j := newJoin("join", left, right, out, spec, core.Noop{})
		if err := j.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return drain(t, out)
	}()
	want := render(serial)

	for _, parallelism := range []int{2, 4} {
		left, right := feed(buildSide(1)...), feed(buildSide(2)...)
		out := NewStream("out", 1<<14)
		operators, err := ShardJoinCfg("join", left, right, out, spec, core.Noop{}, parallelism, 64, 1, ShardJoinConfig{Join: DeriveJoinColSpec(spec)})
		runShardSubgraph(t, operators, err)
		got := render(drain(t, out))
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d outputs, want %d", parallelism, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: sequence diverges from serial at %d: got %s, want %s",
					parallelism, i, got[i], want[i])
			}
		}
	}
}

func TestShardSpecValidation(t *testing.T) {
	in, out := NewStream("in", 1), NewStream("out", 1)
	unkeyed := AggregateSpec{WS: 1, WA: 1, Fold: sumFold}
	if _, err := ShardAggregateCfg("a", in, out, unkeyed, core.Noop{}, 4, 0, 0, ShardConfig{Agg: DeriveAggColSpec(unkeyed)}); err == nil {
		t.Fatal("sharded aggregate without a Key must be rejected")
	}
	keyed := AggregateSpec{WS: 1, WA: 1, Key: keyOf, Fold: sumFold}
	if _, err := ShardAggregateCfg("a", in, out, keyed, core.Noop{}, 1, 0, 0, ShardConfig{Agg: DeriveAggColSpec(keyed)}); err == nil {
		t.Fatal("parallelism < 2 must be rejected")
	}
	if _, err := ShardAggregateCfg("a", in, out, keyed, core.Noop{}, 4, 0, 0, ShardConfig{}); err == nil {
		t.Fatal("sharded aggregate without a columnar spec must be rejected")
	}
	spec := JoinSpec{
		WS:        1,
		Predicate: func(l, r core.Tuple) bool { return true },
		Combine:   func(l, r core.Tuple) core.Tuple { return nil },
	}
	if _, err := ShardJoinCfg("j", in, in, out, spec, core.Noop{}, 4, 0, 0, ShardJoinConfig{Join: DeriveJoinColSpec(spec)}); err == nil {
		t.Fatal("sharded join without key extractors must be rejected")
	}
}

// TestShardAggregatePrefixedMatchesSerial: hoisting a fused stateless
// prefix into the shard lanes — the partitioner consuming the pre-prefix
// stream — must reproduce the serial filter+map+aggregate chain byte for
// byte.
func TestShardAggregatePrefixedMatchesSerial(t *testing.T) {
	build := func() []core.Tuple {
		var tuples []core.Tuple
		for ts := int64(0); ts < 40; ts++ {
			for k := 0; k < 7; k++ {
				tuples = append(tuples, vt(ts, "k"+strconv.Itoa(k), ts+int64(k)))
			}
		}
		return tuples
	}
	pred := func(t core.Tuple) bool { return t.(*vTuple).Val%3 != 0 }
	double := func(t core.Tuple, emit func(core.Tuple)) {
		v := t.(*vTuple)
		emit(vt(v.Timestamp(), v.Key, v.Val*2))
	}
	stages := func() []FusedStage {
		return []FusedStage{
			{Name: "keep", Kind: StageFilter, Pred: pred},
			{Name: "double", Kind: StageMap, Map: double},
		}
	}
	spec := AggregateSpec{WS: 6, WA: 2, Key: keyOf, Fold: sumFold}

	serialOut := func() []core.Tuple {
		in := feed(build()...)
		mid := NewStream("mid", 1024)
		out := NewStream("out", 4096)
		chain := NewFusedChain("prefix", in, mid, stages(), core.Noop{})
		a := newAggregate("agg", mid, out, spec, core.Noop{})
		done := make(chan []core.Tuple)
		go func() { done <- drain(t, out) }()
		runOps(t, chain, a)
		return <-done
	}()
	if len(serialOut) == 0 {
		t.Fatal("serial chain produced no outputs")
	}

	for _, parallelism := range []int{2, 4} {
		in := feed(build()...)
		out := NewStream("out", 4096)
		// The prefix contains a Map, so the hoisted partitioner routes by a
		// declared pre-prefix key (the map is key-preserving here).
		prefix := &ShardPrefix{Name: "keep+double", Stages: stages(), Key: keyOf}
		operators, err := ShardAggregateCfg("agg", in, out, spec, core.Noop{}, parallelism, 64, 1, ShardConfig{Agg: DeriveAggColSpec(spec), Prefix: prefix})
		runShardSubgraph(t, operators, err)
		got := drain(t, out)
		if len(got) != len(serialOut) {
			t.Fatalf("parallelism %d: %d outputs, want %d", parallelism, len(got), len(serialOut))
		}
		for i := range got {
			g, w := got[i].(*vTuple), serialOut[i].(*vTuple)
			if g.Timestamp() != w.Timestamp() || g.Key != w.Key || g.Val != w.Val {
				t.Fatalf("parallelism %d: output %d is %d/%s/%d, want %d/%s/%d",
					parallelism, i, g.Timestamp(), g.Key, g.Val, w.Timestamp(), w.Key, w.Val)
			}
		}
	}
}

// TestShardJoinPrefixedMatchesSerial: per-side fused prefixes replicated
// into the join lanes must reproduce the serial prefix+join output sequence
// byte for byte.
func TestShardJoinPrefixedMatchesSerial(t *testing.T) {
	buildSide := func(side int64) []core.Tuple {
		var tuples []core.Tuple
		for ts := int64(0); ts < 30; ts++ {
			for k := 0; k < 5; k++ {
				tuples = append(tuples, vt(ts, "k"+strconv.Itoa(k), side*1000+ts))
			}
		}
		return tuples
	}
	rightPred := func(t core.Tuple) bool { return t.(*vTuple).Val%2 == 0 }
	rightStages := func() []FusedStage {
		return []FusedStage{{Name: "evens", Kind: StageFilter, Pred: rightPred}}
	}
	spec := JoinSpec{
		WS:       2,
		LeftKey:  keyOf,
		RightKey: keyOf,
		Predicate: func(l, r core.Tuple) bool {
			return l.(*vTuple).Key == r.(*vTuple).Key && l.Timestamp() < r.Timestamp()
		},
		Combine: func(l, r core.Tuple) core.Tuple {
			return vt(0, l.(*vTuple).Key, l.(*vTuple).Val*10000+r.(*vTuple).Val)
		},
	}
	render := func(tuples []core.Tuple) []string {
		out := make([]string, len(tuples))
		for i, tp := range tuples {
			v := tp.(*vTuple)
			out[i] = strconv.FormatInt(v.Timestamp(), 10) + "/" + v.Key + "/" + strconv.FormatInt(v.Val, 10)
		}
		return out
	}

	serial := func() []core.Tuple {
		left := feed(buildSide(1)...)
		right := feed(buildSide(2)...)
		mid := NewStream("mid", 1024)
		out := NewStream("out", 1<<14)
		chain := NewFusedChain("evens", right, mid, rightStages(), core.Noop{})
		j := newJoin("join", left, mid, out, spec, core.Noop{})
		done := make(chan []core.Tuple)
		go func() { done <- drain(t, out) }()
		runOps(t, chain, j)
		return <-done
	}()
	if len(serial) == 0 {
		t.Fatal("serial prefixed join produced no outputs")
	}
	want := render(serial)

	for _, parallelism := range []int{2, 4} {
		left := feed(buildSide(1)...)
		right := feed(buildSide(2)...)
		out := NewStream("out", 1<<14)
		prefix := &ShardPrefix{Name: "evens", Stages: rightStages()} // filter-only: route by RightKey
		operators, err := ShardJoinCfg("join", left, right, out, spec, core.Noop{}, parallelism, 64, 1, ShardJoinConfig{Join: DeriveJoinColSpec(spec), Right: prefix})
		runShardSubgraph(t, operators, err)
		got := render(drain(t, out))
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d outputs, want %d", parallelism, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: sequence diverges from serial at %d: got %s, want %s",
					parallelism, i, got[i], want[i])
			}
		}
	}
}

// TestShardPrefixValidation: malformed prefixes are rejected up front.
func TestShardPrefixValidation(t *testing.T) {
	in, out := NewStream("in", 1), NewStream("out", 1)
	aggSpec := AggregateSpec{WS: 1, WA: 1, Key: keyOf, Fold: sumFold}
	if _, err := ShardAggregateCfg("a", in, out, aggSpec, core.Noop{}, 2, 0, 0, ShardConfig{Agg: DeriveAggColSpec(aggSpec), Prefix: &ShardPrefix{Name: "empty"}}); err == nil {
		t.Fatal("a prefix without stages must be rejected")
	}
	if _, err := ShardAggregateCfg("a", in, out, aggSpec, core.Noop{}, 2, 0, 0, ShardConfig{Agg: DeriveAggColSpec(aggSpec),
		Prefix: &ShardPrefix{Name: "bad", Stages: []FusedStage{{Name: "m", Kind: StageMap}}}}); err == nil {
		t.Fatal("a prefix with an invalid stage must be rejected")
	}
	joinSpec := JoinSpec{
		WS:        1,
		LeftKey:   keyOf,
		RightKey:  keyOf,
		Predicate: func(l, r core.Tuple) bool { return true },
		Combine:   func(l, r core.Tuple) core.Tuple { return nil },
	}
	if _, err := ShardJoinCfg("j", in, in, out, joinSpec, core.Noop{}, 2, 0, 0, ShardJoinConfig{Join: DeriveJoinColSpec(joinSpec), Left: &ShardPrefix{Name: "empty"}}); err == nil {
		t.Fatal("a left prefix without stages must be rejected")
	}
}
