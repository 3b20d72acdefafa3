package ops

import (
	"errors"
	"fmt"

	"context"

	"genealog/internal/core"
)

// This file is the keyed shard-parallel execution layer: it expands one
// stateful operator (Aggregate, Join) into N independent shard instances
// that each own a hash-partition of the key space, bracketed by a Partition
// operator that routes tuples by key and a FanIn operator that restores the
// serial operator's deterministic emission order. Because GeneaLog's
// meta-attributes (paper §4.1) only ever link tuples that share a group-by
// or join key, partitioning by that key keeps every contribution graph
// entirely within one shard — provenance capture and traversal are
// unaffected by the parallelism level.

// shardIndex assigns a key to one of n shards with FNV-1a. The assignment
// only decides *where* a key's tuples are processed, never the observable
// output (FanIn restores the deterministic order), but a stable hash keeps
// shard load repeatable across runs.
func shardIndex(key string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// shardTagged wraps a shard instance's output tuple with the partition key
// it was produced under, so the FanIn can restore the serial operator's
// (timestamp, key) emission order without inspecting payloads. It delegates
// event time and provenance metadata to the wrapped tuple and never leaves
// the shard subgraph: the FanIn unwraps it before forwarding downstream.
type shardTagged struct {
	inner core.Tuple
	key   string
}

var _ core.Traceable = (*shardTagged)(nil)

// Timestamp implements core.Tuple by delegation.
func (s *shardTagged) Timestamp() int64 { return s.inner.Timestamp() }

// ProvMeta implements core.Traceable by delegation, so the shard operator's
// timestamp/stimulus writes and instrumenter hooks land on the wrapped tuple.
func (s *shardTagged) ProvMeta() *core.Meta { return core.MetaOf(s.inner) }

// shardKeyOf returns the partition key a fan-in head was produced under
// (empty for heartbeats and untagged tuples).
func shardKeyOf(t core.Tuple) string {
	if st, ok := t.(*shardTagged); ok {
		return st.key
	}
	return ""
}

// Partition hash-routes one timestamp-sorted keyed stream across n shard
// streams. Every shard's output stays timestamp-sorted (a subsequence of a
// sorted stream followed by at most one trailing watermark per flush), and
// the shards whose watermark lags are brought up to date with a Heartbeat:
// a shard whose keys go quiet would otherwise stop closing windows,
// stalling the FanIn's deterministic merge and — through backpressure — its
// sibling shards.
//
// Watermarks are broadcast once per flushed input batch, not once per
// distinct input timestamp: the per-tuple (n-1)-way heartbeat fan-out of
// the original design made the partitioner O(n) channel operations per
// tuple on high-resolution streams, dominating the instrumentation overhead
// the paper measures. Delaying a sibling's watermark to the batch boundary
// never changes the sink-observable output — a shard aggregate's window
// contents are fixed by its own routed tuples, watermarks only decide when
// due windows close between appends, and the FanIn's (timestamp, key) merge
// re-serialises emissions deterministically — it only coarsens heartbeat
// traffic from O(n) per tuple to O(n / batch size).
type Partition struct {
	name   string
	in     *Stream
	outs   []*Stream
	key    func(core.Tuple) string
	colKey *ColKey

	lastWM int64
	haveWM bool
	// shardWM[i] is the highest event time delivered to shard i (data or
	// heartbeat); shards at the current watermark need no marker.
	shardWM []int64

	// Scratch for batch-wise key extraction (colKey != nil).
	cb   ColBatch
	sel  []int
	keys []string
}

var _ Operator = (*Partition)(nil)

// NewPartition returns a Partition routing in across outs by key.
func NewPartition(name string, in *Stream, outs []*Stream, key func(core.Tuple) string) *Partition {
	return &Partition{name: name, in: in, outs: outs, key: key}
}

// NewPartitionCol returns a Partition that extracts each input batch's
// routing keys in one vectorized pass with colKey's kernel instead of calling
// key per tuple. The kernel must compute exactly the key function's value for
// every data tuple of the input stream; key remains the declared row
// equivalent (plan dumps, debugging). A nil colKey degenerates to
// NewPartition.
func NewPartitionCol(name string, in *Stream, outs []*Stream, key func(core.Tuple) string, colKey *ColKey) *Partition {
	return &Partition{name: name, in: in, outs: outs, key: key, colKey: colKey}
}

// Name implements Operator.
func (p *Partition) Name() string { return p.name }

// Run implements Operator. A panicking routing key is converted into a
// query error instead of crashing the process: with a hoisted stateless
// prefix the partitioner applies the key to the *pre-prefix* stream, and a
// key function written for the narrowed post-prefix stream (say, after a
// type-guard Filter) would otherwise take down the whole program on the
// first tuple the prefix used to drop.
func (p *Partition) Run(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("partition %q: routing key panicked on an input tuple: %v (if a stateless prefix was hoisted above this partitioner, its key must accept every pre-prefix tuple — declare a total Node.ShardKey on the chain head or disable fusion)", p.name, r)
		}
	}()
	defer closeAll(ctx, p.outs)
	p.shardWM = make([]int64, len(p.outs))
	for i := range p.shardWM {
		p.shardWM[i] = int64(-1) << 62
	}
	for {
		batch, ok, err := p.in.RecvBatch(ctx)
		if err != nil {
			return fmt.Errorf("partition %q: %w", p.name, err)
		}
		if !ok {
			return nil
		}
		keys, err := p.extractKeys(batch)
		if err != nil {
			return fmt.Errorf("partition %q: %w", p.name, err)
		}
		ki := 0
		for _, t := range batch {
			ts := t.Timestamp()
			if !p.haveWM || ts > p.lastWM {
				p.lastWM, p.haveWM = ts, true
			}
			if core.IsHeartbeat(t) {
				continue // folded into the batch-boundary broadcast
			}
			var key string
			if keys != nil {
				key = keys[ki]
				ki++
			} else {
				key = p.key(t)
			}
			shard := shardIndex(key, len(p.outs))
			if ts > p.shardWM[shard] {
				p.shardWM[shard] = ts
			}
			if err := p.outs[shard].Send(ctx, t); err != nil {
				return fmt.Errorf("partition %q: %w", p.name, err)
			}
		}
		if err := p.broadcast(ctx); err != nil {
			return fmt.Errorf("partition %q: %w", p.name, err)
		}
		for _, out := range p.outs {
			if err := out.Flush(ctx); err != nil {
				return fmt.Errorf("partition %q: %w", p.name, err)
			}
		}
	}
}

// broadcast sends the current watermark to every shard still below it, once
// per flushed batch. Each shard gets its own marker object (a shared one
// could be mutated concurrently downstream).
func (p *Partition) broadcast(ctx context.Context) error {
	if !p.haveWM {
		return nil
	}
	for i, out := range p.outs {
		if p.shardWM[i] >= p.lastWM {
			continue
		}
		p.shardWM[i] = p.lastWM
		if err := out.Send(ctx, core.NewHeartbeat(p.lastWM)); err != nil {
			return err
		}
	}
	return nil
}

// extractKeys computes the routing key of every data tuple in batch with the
// vectorized key kernel, in batch order; it returns nil when the partitioner
// has no ColKey (row-path key extraction).
func (p *Partition) extractKeys(batch Batch) ([]string, error) {
	if p.colKey == nil {
		return nil, nil
	}
	p.sel = p.sel[:0]
	for pos, t := range batch {
		if !core.IsHeartbeat(t) {
			p.sel = append(p.sel, pos)
		}
	}
	p.keys = p.keys[:0]
	if len(p.sel) == 0 {
		return p.keys, nil
	}
	p.cb.bind(p.colKey.Schema, batch, p.sel)
	p.cb.invalidate() // every batch is fresh rows behind a possibly recycled buffer
	p.keys = p.colKey.Kernel(&p.cb, p.sel, p.keys)
	if len(p.keys) != len(p.sel) {
		return nil, fmt.Errorf("key kernel returned %d keys for %d tuples (kernels are strictly one-to-one)", len(p.keys), len(p.sel))
	}
	return p.keys, nil
}

// FanIn merges the timestamp-sorted outputs of the shard instances back into
// one stream. Like tsMerge it blocks until every open input has a head, but
// ties are broken by partition key rather than input index: a serial keyed
// Aggregate emits each window's groups in ascending key order, every shard
// emits an ascending-key subsequence of that, and the (timestamp, key) merge
// re-interleaves them into exactly the serial sequence — the property that
// makes shard-parallel execution observably identical to Parallelism(1).
// Tagged outputs are unwrapped before forwarding; redundant heartbeats are
// coalesced as in Union.
//
// The planner can fold the stateless chain that follows the shard subgraph
// into the fan-in (NewFanInFused): the merged tuples run the suffix stages by
// direct calls in the merge loop, exactly as a downstream FusedChain would,
// minus the stream and goroutine.
type FanIn struct {
	name   string
	ins    []*Stream
	out    *Stream
	suffix []FusedStage
	instr  core.Instrumenter
}

var _ Operator = (*FanIn)(nil)

// NewFanIn returns a FanIn merging ins into out.
func NewFanIn(name string, ins []*Stream, out *Stream) *FanIn {
	return NewFanInFused(name, ins, out, nil, core.Noop{})
}

// NewFanInFused returns a FanIn that pushes the merged tuples through the
// given inlined stateless stages (may be empty) before forwarding. It panics
// if a stage is invalid.
func NewFanInFused(name string, ins []*Stream, out *Stream, suffix []FusedStage, instr core.Instrumenter) *FanIn {
	for _, s := range suffix {
		if err := s.validate(); err != nil {
			panic(fmt.Sprintf("fan-in %q: %v", name, err))
		}
	}
	return &FanIn{name: name, ins: ins, out: out, suffix: suffix, instr: instr}
}

// Name implements Operator.
func (f *FanIn) Name() string { return f.name }

// Run implements Operator.
func (f *FanIn) Run(ctx context.Context) error {
	defer f.out.CloseSend(ctx)
	ap := newStageApplier(f.suffix, f.instr,
		func(t core.Tuple) error { return f.out.Send(ctx, t) },
		func(ts int64) error { return f.out.Send(ctx, core.NewHeartbeat(ts)) })
	heads := make([]core.Tuple, len(f.ins))
	has := make([]bool, len(f.ins))
	done := make([]bool, len(f.ins))
	for {
		for i, in := range f.ins {
			if done[i] || has[i] {
				continue
			}
			if !in.CanRecv() {
				// About to block on a shard: make everything merged so far
				// visible downstream first (see Stream.Flush).
				if err := f.out.Flush(ctx); err != nil {
					return fmt.Errorf("fan-in %q: %w", f.name, err)
				}
			}
			t, alive, err := in.Recv(ctx)
			if err != nil {
				return fmt.Errorf("fan-in %q: %w", f.name, err)
			}
			if !alive {
				done[i] = true
				continue
			}
			heads[i], has[i] = t, true
		}
		best := -1
		for i := range heads {
			if !has[i] {
				continue
			}
			if best == -1 || headLess(heads[i], heads[best]) {
				best = i
			}
		}
		if best == -1 {
			return nil
		}
		t := heads[best]
		heads[best], has[best] = nil, false
		var err error
		if core.IsHeartbeat(t) {
			err = ap.skip(t.Timestamp())
		} else {
			if tagged, ok := t.(*shardTagged); ok {
				t = tagged.inner
			}
			err = ap.run(t)
		}
		if err != nil {
			return fmt.Errorf("fan-in %q: %w", f.name, err)
		}
	}
}

// headLess orders fan-in heads by (timestamp, partition key). Heartbeats
// carry the empty key and therefore sort before data at equal timestamps,
// which is harmless: a heartbeat only promises no *later* tuple below its
// event time. Equal (timestamp, key) pairs cannot come from different
// shards — a key lives on exactly one — so the order is total.
func headLess(a, b core.Tuple) bool {
	at, bt := a.Timestamp(), b.Timestamp()
	if at != bt {
		return at < bt
	}
	return shardKeyOf(a) < shardKeyOf(b)
}

// ShardPrefix describes a fused stateless prefix hoisted into a shard
// subgraph: the partitioner moves upstream of the prefix and one FusedChain
// replica of the prefix runs inside every shard lane, in front of the
// stateful instance, so the prefix work scales with the shard count instead
// of serialising on one goroutine (the planner's pass 2).
type ShardPrefix struct {
	// Name names the fused prefix (operator names, plan dumps).
	Name string
	// Stages are the prefix's logical stages, upstream first.
	Stages []FusedStage
	// Key, when non-nil, routes the pre-prefix tuples at the hoisted
	// partitioner; it must assign every tuple the partition its post-prefix
	// descendants' key hashes to. When nil, the stateful spec's own key
	// function is applied to the pre-prefix tuples — sound when every prefix
	// stage forwards the tuple object (or a payload-identical clone), i.e.
	// the prefix contains no Map.
	Key func(core.Tuple) string
}

func (p *ShardPrefix) validate() error {
	if p == nil {
		return nil
	}
	if len(p.Stages) == 0 {
		return errors.New("shard prefix: no stages")
	}
	for _, s := range p.Stages {
		if err := s.validate(); err != nil {
			return fmt.Errorf("shard prefix: %w", err)
		}
	}
	return nil
}

// routeKey returns the key the hoisted partitioner routes by: the declared
// prefix key, or the stateful operator's own key for object-preserving
// prefixes (and for subgraphs with no prefix at all).
func (p *ShardPrefix) routeKey(specKey func(core.Tuple) string) func(core.Tuple) string {
	if p != nil && p.Key != nil {
		return p.Key
	}
	return specKey
}

// stages returns the prefix's stage list (nil for no prefix), for inlining
// into each shard instance's input loop.
func (p *ShardPrefix) stages() []FusedStage {
	if p == nil {
		return nil
	}
	return p.Stages
}

// ShardSuffix describes a fused stateless suffix folded into a shard
// subgraph's fan-in: the merged output runs the suffix stages inside the
// FanIn's loop instead of a separate FusedChain downstream of it (the
// planner's pass on shard-adjacent chains).
type ShardSuffix struct {
	// Name names the fused suffix (plan dumps).
	Name string
	// Stages are the suffix's logical stages, upstream first.
	Stages []FusedStage
}

func (s *ShardSuffix) validate() error {
	if s == nil {
		return nil
	}
	if len(s.Stages) == 0 {
		return errors.New("shard suffix: no stages")
	}
	for _, st := range s.Stages {
		if err := st.validate(); err != nil {
			return fmt.Errorf("shard suffix: %w", err)
		}
	}
	return nil
}

// stages returns the suffix's stage list (nil for no suffix).
func (s *ShardSuffix) stages() []FusedStage {
	if s == nil {
		return nil
	}
	return s.Stages
}

// ShardConfig bundles the planner-derived physical options of a sharded
// Aggregate subgraph.
type ShardConfig struct {
	// Agg is the columnar spec every lane's ColAggregate runs: the declared
	// one, or DeriveAggColSpec's.
	Agg AggColSpec
	// Prefix is the hoisted stateless chain replicated into every lane.
	Prefix *ShardPrefix
	// Suffix is the stateless chain folded into the fan-in.
	Suffix *ShardSuffix
	// ColKey, when non-nil, extracts each input batch's routing keys in one
	// vectorized pass at the partitioner. Its kernel must compute exactly the
	// value of the routing key function (ShardPrefix.routeKey) on every input
	// tuple.
	ColKey *ColKey
	// VecPrefix, when non-nil, carries the hoisted prefix as columnar stages;
	// it must mirror Prefix.Stages one-to-one (same logical operators, kernel
	// form), so each lane runs the whole prefix→aggregate span over columns.
	// Without it the lanes run Prefix.Stages as row stages.
	VecPrefix []ColStage
	// Observe, when non-nil, is called once for every internal stream of the
	// subgraph (partition lanes and merge lanes) at construction time, before
	// any operator runs. Telemetry uses it to attach per-batch counters to
	// streams the query builder never sees.
	Observe func(*Stream)
}

// ShardJoinConfig bundles the planner-derived physical options of a sharded
// Join subgraph.
type ShardJoinConfig struct {
	// Join is the columnar spec every lane's ColJoin runs: the declared one,
	// or DeriveJoinColSpec's.
	Join JoinColSpec
	// Left and Right are the hoisted per-side stateless chains replicated
	// into every lane. Lane prefixes are row stages — the join's merge
	// consumes tuple-at-a-time.
	Left, Right *ShardPrefix
	// Suffix is the stateless chain folded into the fan-in.
	Suffix *ShardSuffix
	// LeftColKey and RightColKey vectorize the per-side routing key
	// extraction, like ShardConfig.ColKey.
	LeftColKey, RightColKey *ColKey
	// Observe, when non-nil, is called once for every internal stream of the
	// subgraph at construction time (see ShardConfig.Observe).
	Observe func(*Stream)
}

// ShardAggregateCfg expands a keyed Aggregate into parallelism independent
// ColAggregate instances, each folding the hash-partition of the key space
// assigned to it, bracketed by a Partition and a FanIn. It returns the
// operators of the subgraph (instances, then partitioner, then fan-in),
// which the caller runs like any other operators.
//
// The sink-observable output is identical to a serial Aggregate for every
// instrumentation mode: windows close at the same watermarks on every shard
// (the Partition broadcasts watermark progress), each group's window — and
// therefore its provenance chain and window folds — is byte-identical to
// the serial operator's, and the FanIn restores the (window, key) emission
// order. chanCap sizes the internal shard streams (<= 0 selects
// DefaultStreamCapacity); batchSize sets their batch size (<= 0 selects 1),
// amortising partition/fan-in channel operations across tuple vectors.
// With a hoisted prefix (see ShardConfig) every shard still receives
// exactly the serial prefix output restricted to its keys, in order.
func ShardAggregateCfg(name string, in, out *Stream, spec AggregateSpec, instr core.Instrumenter, parallelism, chanCap, batchSize int, cfg ShardConfig) ([]Operator, error) {
	if parallelism < 2 {
		return nil, errors.New("sharded aggregate: parallelism must be at least 2")
	}
	if spec.Key == nil {
		return nil, errors.New("sharded aggregate: a group-by Key is required to partition by")
	}
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("sharded aggregate: %w", err)
	}
	if err := cfg.Agg.Validate(spec); err != nil {
		return nil, fmt.Errorf("sharded aggregate: %w", err)
	}
	if err := cfg.Prefix.validate(); err != nil {
		return nil, fmt.Errorf("sharded aggregate: %w", err)
	}
	if err := cfg.Suffix.validate(); err != nil {
		return nil, fmt.Errorf("sharded aggregate: %w", err)
	}
	rowPrefix := cfg.Prefix.stages()
	if cfg.VecPrefix != nil {
		if len(cfg.VecPrefix) != len(rowPrefix) {
			return nil, errors.New("sharded aggregate: VecPrefix must mirror the hoisted prefix stage for stage")
		}
		rowPrefix = nil
	}
	colFold := cfg.Agg.Fold
	shardCol := cfg.Agg
	shardCol.Fold = func(seg *ColSeg, start, end int64, key string) core.Tuple {
		t := colFold(seg, start, end, key)
		if t == nil {
			return nil
		}
		return &shardTagged{inner: t, key: key}
	}
	operators := make([]Operator, 0, parallelism+2)
	shardIns := make([]*Stream, parallelism)
	shardOuts := make([]*Stream, parallelism)
	for i := range shardIns {
		shardIns[i] = NewBatchedStream(fmt.Sprintf("%s/part->%s#%d", name, name, i), chanCap, batchSize)
		shardOuts[i] = NewBatchedStream(fmt.Sprintf("%s#%d->%s/merge", name, i, name), chanCap, batchSize)
		if cfg.Observe != nil {
			cfg.Observe(shardIns[i])
			cfg.Observe(shardOuts[i])
		}
		operators = append(operators, NewColAggregate(fmt.Sprintf("%s#%d", name, i), shardIns[i], shardOuts[i], spec, shardCol, cfg.VecPrefix, rowPrefix, instr))
	}
	operators = append(operators,
		NewPartitionCol(name+"/part", in, shardIns, cfg.Prefix.routeKey(spec.Key), cfg.ColKey),
		NewFanInFused(name+"/merge", shardOuts, out, cfg.Suffix.stages(), instr))
	return operators, nil
}

// ShardJoinCfg expands an equi-Join into parallelism independent ColJoin
// instances: both inputs are hash-partitioned by their join key
// (LeftKey/RightKey), so every matching pair meets on exactly one shard, and
// the shard outputs are recombined by a FanIn. The JoinSpec's Predicate must
// only match pairs with equal keys — pairs spanning different keys would be
// routed to different shards and silently lost.
//
// The serial Join already emits same-timestamp outputs in (left key, right
// key) order (see ColJoin), and the FanIn's (timestamp, key) merge
// reconstructs exactly that sequence from the shard subsequences, so the
// sharded output is byte-identical to Parallelism(1), like the Aggregate
// expansion.
// Lane prefixes must preserve timestamps (see NewColJoin).
func ShardJoinCfg(name string, left, right, out *Stream, spec JoinSpec, instr core.Instrumenter, parallelism, chanCap, batchSize int, cfg ShardJoinConfig) ([]Operator, error) {
	if parallelism < 2 {
		return nil, errors.New("sharded join: parallelism must be at least 2")
	}
	if !spec.keyed() {
		return nil, errors.New("sharded join: LeftKey and RightKey are required to partition by")
	}
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("sharded join: %w", err)
	}
	if err := cfg.Join.Validate(spec); err != nil {
		return nil, fmt.Errorf("sharded join: %w", err)
	}
	if err := cfg.Left.validate(); err != nil {
		return nil, fmt.Errorf("sharded join: left %w", err)
	}
	if err := cfg.Right.validate(); err != nil {
		return nil, fmt.Errorf("sharded join: right %w", err)
	}
	if err := cfg.Suffix.validate(); err != nil {
		return nil, fmt.Errorf("sharded join: %w", err)
	}
	combine := spec.Combine
	leftKey := spec.LeftKey
	shardSpec := spec
	shardSpec.Combine = func(l, r core.Tuple) core.Tuple {
		t := combine(l, r)
		if t == nil {
			return nil
		}
		return &shardTagged{inner: t, key: leftKey(l)}
	}
	operators := make([]Operator, 0, parallelism+3)
	leftIns := make([]*Stream, parallelism)
	rightIns := make([]*Stream, parallelism)
	shardOuts := make([]*Stream, parallelism)
	for i := range leftIns {
		leftIns[i] = NewBatchedStream(fmt.Sprintf("%s/part-l->%s#%d", name, name, i), chanCap, batchSize)
		rightIns[i] = NewBatchedStream(fmt.Sprintf("%s/part-r->%s#%d", name, name, i), chanCap, batchSize)
		shardOuts[i] = NewBatchedStream(fmt.Sprintf("%s#%d->%s/merge", name, i, name), chanCap, batchSize)
		if cfg.Observe != nil {
			cfg.Observe(leftIns[i])
			cfg.Observe(rightIns[i])
			cfg.Observe(shardOuts[i])
		}
		operators = append(operators, NewColJoin(fmt.Sprintf("%s#%d", name, i), leftIns[i], rightIns[i], shardOuts[i], shardSpec, cfg.Join, cfg.Left.stages(), cfg.Right.stages(), instr))
	}
	operators = append(operators,
		NewPartitionCol(name+"/part-l", left, leftIns, cfg.Left.routeKey(spec.LeftKey), cfg.LeftColKey),
		NewPartitionCol(name+"/part-r", right, rightIns, cfg.Right.routeKey(spec.RightKey), cfg.RightColKey),
		NewFanInFused(name+"/merge", shardOuts, out, cfg.Suffix.stages(), instr))
	return operators, nil
}
