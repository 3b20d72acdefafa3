package ops

import (
	"context"
	"errors"
	"sort"

	"genealog/internal/core"
)

// JoinSpec configures a windowed Join (paper §2), which ColJoin executes.
type JoinSpec struct {
	// WS is the join window: a left tuple l and right tuple r can match only
	// if |l.ts - r.ts| <= WS.
	WS int64
	// Predicate decides whether a (left, right) pair joins.
	Predicate func(l, r core.Tuple) bool
	// Combine builds the output tuple of a matched pair. The operator
	// overwrites its timestamp with max(l.ts, r.ts) (keeping the output
	// sorted) and merges the pair's stimuli; Combine only fills the payload.
	Combine func(l, r core.Tuple) core.Tuple
	// LeftKey and RightKey extract the equi-join key of each side.
	// Shard-parallel execution (ShardJoinCfg) requires both and partitions each
	// input by its key, so the Predicate must only match pairs whose keys are
	// equal — pairs spanning different keys would land on different shards
	// and never meet. Same-timestamp outputs leave in (left key, right key)
	// order, which makes a keyed Join's output byte-identical — not just the
	// same timestamp-sorted multiset — across serial, shard-parallel, fused
	// and vectorized plans. Without keys, both sides share one constant key
	// and outputs leave in match order.
	LeftKey  func(t core.Tuple) string
	RightKey func(t core.Tuple) string
}

func (s JoinSpec) validate() error {
	if s.WS < 0 {
		return errors.New("join: WS must be non-negative")
	}
	if s.Predicate == nil || s.Combine == nil {
		return errors.New("join: Predicate and Combine are required")
	}
	return nil
}

// keyed reports whether the spec declares both equi-join keys.
func (s JoinSpec) keyed() bool { return s.LeftKey != nil && s.RightKey != nil }

// pendingJoinOut is one same-timestamp output held back for the keyed
// (timestamp, left key, right key) emission-order tie-break.
type pendingJoinOut struct {
	out    core.Tuple
	lk, rk string
}

// joinEmitter is ColJoin's output side: the (left key, right key)
// same-timestamp tie-break buffer and the coalesced watermark
// advertisements.
type joinEmitter struct {
	out *Stream

	pending   []pendingJoinOut
	pendingTs int64

	lastOut  int64 // watermark already visible downstream (tuple or heartbeat)
	haveLast bool
}

// hold defers a keyed output for the (left key, right key) tie-break.
func (e *joinEmitter) hold(out core.Tuple, lk, rk string) {
	e.pending = append(e.pending, pendingJoinOut{out: out, lk: lk, rk: rk})
	e.pendingTs = out.Timestamp()
}

// watermark advances the downstream watermark to ts, first flushing any
// pending keyed outputs it strictly passes. While outputs are pending at ts
// itself, the advance is withheld — later merge deliveries at the same
// timestamp may still add same-timestamp matches that must sort with them.
func (e *joinEmitter) watermark(ctx context.Context, ts int64) error {
	if len(e.pending) > 0 {
		if ts <= e.pendingTs {
			return nil
		}
		if err := e.flushPending(ctx); err != nil {
			return err
		}
	}
	return e.advertise(ctx, ts)
}

// flushPending emits the held same-timestamp outputs sorted by (left key,
// right key). The sort is stable, so outputs sharing both keys keep their
// deterministic match order.
func (e *joinEmitter) flushPending(ctx context.Context) error {
	if len(e.pending) == 0 {
		return nil
	}
	sort.SliceStable(e.pending, func(a, b int) bool {
		pa, pb := e.pending[a], e.pending[b]
		if pa.lk != pb.lk {
			return pa.lk < pb.lk
		}
		return pa.rk < pb.rk
	})
	for i, p := range e.pending {
		e.lastOut, e.haveLast = p.out.Timestamp(), true
		if err := e.out.Send(ctx, p.out); err != nil {
			return err
		}
		e.pending[i] = pendingJoinOut{}
	}
	e.pending = e.pending[:0]
	return nil
}

// advertise emits a Heartbeat once per watermark advance: every future
// output pairs the incoming side's tuple (timestamp >= the merged watermark)
// with a buffered one, so its event time — the pair maximum — cannot precede
// the watermark.
func (e *joinEmitter) advertise(ctx context.Context, watermark int64) error {
	if e.haveLast && watermark <= e.lastOut {
		return nil
	}
	e.lastOut, e.haveLast = watermark, true
	return e.out.Send(ctx, core.NewHeartbeat(watermark))
}

// DeriveJoinColSpec returns the columnar spec that runs spec's row
// Predicate on ColJoin: empty window schemas and residual kernels that call
// the Predicate on every same-key candidate pair, in arrival order. It is the
// spec of every Join that declares no kernels, and of every Join when
// vectorization is off.
func DeriveJoinColSpec(spec JoinSpec) JoinColSpec {
	pred := spec.Predicate
	residual := func(fromLeft bool) ProbeKernel {
		return func(t core.Tuple, cand *ColSeg, sel []int, dst []int) []int {
			rows := cand.Rows()
			for _, pos := range sel {
				l, r := t, rows[pos]
				if !fromLeft {
					l, r = r, l
				}
				if pred(l, r) {
					dst = append(dst, pos)
				}
			}
			return dst
		}
	}
	return JoinColSpec{Left: emptyColSchema, Right: emptyColSchema, ResidualL: residual(true), ResidualR: residual(false)}
}
