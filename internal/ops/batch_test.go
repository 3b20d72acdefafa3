package ops

import (
	"context"
	"strconv"
	"testing"

	"genealog/internal/core"
)

func TestStreamBatchAccumulatesAndFlushesAtMax(t *testing.T) {
	ctx := context.Background()
	s := NewBatchedStream("s", 8, 3)
	for i := 0; i < 3; i++ {
		if err := s.Send(ctx, vt(int64(i), "k", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case b := <-s.ch:
		if len(b) != 3 {
			t.Fatalf("published batch has %d tuples, want 3", len(b))
		}
	default:
		t.Fatal("a full batch must be published without Flush")
	}
	// A partial batch stays pending until flushed.
	if err := s.Send(ctx, vt(3, "k", 3)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.ch:
		t.Fatal("partial batch must not be published")
	default:
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if b := <-s.ch; len(b) != 1 || b[0].Timestamp() != 3 {
		t.Fatalf("flushed batch = %v", timestamps(b))
	}
}

func TestStreamBatchFlushOnClose(t *testing.T) {
	ctx := context.Background()
	s := NewBatchedStream("s", 8, 64)
	for i := 0; i < 5; i++ {
		if err := s.Send(ctx, vt(int64(i), "k", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.CloseSend(ctx)
	var got []core.Tuple
	for {
		tp, ok, err := s.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, tp)
	}
	if len(got) != 5 {
		t.Fatalf("drained %d tuples after CloseSend, want 5 (flush-on-close)", len(got))
	}
}

func TestStreamBatchCoalescesPendingHeartbeats(t *testing.T) {
	ctx := context.Background()
	s := NewBatchedStream("s", 8, 64)
	// hb(1) is subsumed by hb(2), which is subsumed by data at ts 3.
	if err := s.Send(ctx, core.NewHeartbeat(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(ctx, core.NewHeartbeat(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(ctx, vt(3, "k", 0)); err != nil {
		t.Fatal(err)
	}
	// A heartbeat after data appends (nothing to coalesce into).
	if err := s.Send(ctx, core.NewHeartbeat(9)); err != nil {
		t.Fatal(err)
	}
	s.CloseSend(ctx)
	all := drainAll(t, s)
	if len(all) != 2 {
		t.Fatalf("stream carried %d elements, want data+heartbeat: %v", len(all), timestamps(all))
	}
	if core.IsHeartbeat(all[0]) || all[0].Timestamp() != 3 {
		t.Fatalf("element 0 = %T@%d, want data at 3", all[0], all[0].Timestamp())
	}
	if !core.IsHeartbeat(all[1]) || all[1].Timestamp() != 9 {
		t.Fatalf("element 1 = %T@%d, want heartbeat at 9", all[1], all[1].Timestamp())
	}
}

func TestStreamRecvBatchReturnsRemainder(t *testing.T) {
	ctx := context.Background()
	s := NewBatchedStream("s", 8, 4)
	for i := 0; i < 4; i++ {
		if err := s.Send(ctx, vt(int64(i), "k", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.CloseSend(ctx)
	if tp, ok, err := s.Recv(ctx); err != nil || !ok || tp.Timestamp() != 0 {
		t.Fatalf("Recv = %v/%v/%v", tp, ok, err)
	}
	b, ok, err := s.RecvBatch(ctx)
	if err != nil || !ok {
		t.Fatalf("RecvBatch = %v/%v", ok, err)
	}
	if !int64sEqual(timestamps(b), []int64{1, 2, 3}) {
		t.Fatalf("remainder batch = %v, want [1 2 3]", timestamps(b))
	}
	if _, ok, _ := s.RecvBatch(ctx); ok {
		t.Fatal("stream must be ended")
	}
}

// countShardHeartbeats routes n tuples with distinct timestamps across
// shards through a Partition whose streams use the given batch size, and
// returns the heartbeats received per shard.
func countShardHeartbeats(t *testing.T, n, shards, batch int) []int {
	t.Helper()
	tuples := make([]core.Tuple, n)
	for i := range tuples {
		tuples[i] = vt(int64(i), "k"+strconv.Itoa(i%97), int64(i))
	}
	in := feedBatched(batch, tuples...)
	outs := make([]*Stream, shards)
	for i := range outs {
		outs[i] = NewBatchedStream("s"+strconv.Itoa(i), n+1, batch)
	}
	p := NewPartition("part", in, outs, keyOf)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	total := 0
	for i, out := range outs {
		for _, tp := range drainAll(t, out) {
			if core.IsHeartbeat(tp) {
				counts[i]++
			} else {
				total++
			}
		}
	}
	if total != n {
		t.Fatalf("partition dropped or duplicated data: %d tuples out, want %d", total, n)
	}
	return counts
}

// TestPartitionHeartbeatTrafficDropsWithBatchSize is the regression test
// for the per-tuple watermark amplification bug: the original
// Partition.broadcast sent a fresh heartbeat to every sibling shard for
// each distinct input timestamp — O(shards) channel operations per tuple on
// a high-resolution stream. Broadcasts now coalesce to batch-flush
// boundaries, so per-shard heartbeat traffic drops from O(n) to
// O(n / batch size).
func TestPartitionHeartbeatTrafficDropsWithBatchSize(t *testing.T) {
	const (
		n      = 10_000
		shards = 4
		batch  = 64
	)
	unbatched := countShardHeartbeats(t, n, shards, 1)
	batched := countShardHeartbeats(t, n, shards, batch)
	for i := 0; i < shards; i++ {
		// Unbatched: one broadcast per distinct timestamp reaches roughly
		// every shard that did not receive the routed tuple — O(n).
		if unbatched[i] < n/2 {
			t.Fatalf("shard %d: unbatched heartbeats = %d, expected O(n) (>= %d)", i, unbatched[i], n/2)
		}
		// Batched: at most one heartbeat per shard per flushed input batch,
		// so ~n/batch with a little slack for the final flush.
		limit := n/batch + 2
		if batched[i] > limit {
			t.Fatalf("shard %d: batched heartbeats = %d, want <= %d (O(n / batch size))", i, batched[i], limit)
		}
	}
}

// TestShardAggregateBatchedMatchesSerial: the sharded aggregate's sink
// sequence must be byte-identical to the serial operator's at batch size 64
// just as it is at batch size 1.
func TestShardAggregateBatchedMatchesSerial(t *testing.T) {
	var tuples []core.Tuple
	for ts := int64(0); ts < 60; ts++ {
		for k := 0; k < 9; k++ {
			if (int(ts)+k)%4 == 0 {
				continue
			}
			tuples = append(tuples, vt(ts, "k"+strconv.Itoa(k), ts+int64(k)))
		}
	}
	spec := AggregateSpec{WS: 6, WA: 2, Key: keyOf, Fold: sumFold}

	serial := func() []core.Tuple {
		in := feed(tuples...)
		out := NewStream("out", 4096)
		a := newAggregate("agg", in, out, spec, core.Noop{})
		if err := a.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return drain(t, out)
	}()

	for _, batch := range []int{2, 64} {
		in := feedBatched(batch, tuples...)
		out := NewBatchedStream("out", 4096, batch)
		operators, err := ShardAggregateCfg("agg", in, out, spec, core.Noop{}, 4, 64, batch, ShardConfig{Agg: DeriveAggColSpec(spec)})
		runShardSubgraph(t, operators, err)
		got := drain(t, out)
		if len(got) != len(serial) {
			t.Fatalf("batch %d: %d outputs, want %d", batch, len(got), len(serial))
		}
		for i := range got {
			g, w := got[i].(*vTuple), serial[i].(*vTuple)
			if g.Timestamp() != w.Timestamp() || g.Key != w.Key || g.Val != w.Val {
				t.Fatalf("batch %d: output %d is %d/%s/%d, want %d/%s/%d",
					batch, i, g.Timestamp(), g.Key, g.Val, w.Timestamp(), w.Key, w.Val)
			}
		}
	}
}
