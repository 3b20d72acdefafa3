package ops

import (
	"context"
	"fmt"

	"genealog/internal/core"
	"genealog/internal/telemetry"
)

// StageKind identifies the per-tuple behaviour of one stage of a FusedChain.
type StageKind uint8

// Fused stage kinds.
const (
	// StageMap applies a MapFunc: zero or more outputs per input, each linked
	// to the input through the instrumenter (U1, Type=MAP) exactly as the
	// standalone Map operator does.
	StageMap StageKind = iota + 1
	// StageFilter applies a predicate and drops non-matching tuples,
	// advertising watermark progress for the dropped ones.
	StageFilter
	// StageMultiplex is a cloning single-branch pass-through Multiplex: the
	// stage clones the tuple and links the copy through the instrumenter (GL:
	// U1, Type=MULTIPLEX). A Multiplex the planner lets share its input is a
	// StagePass instead.
	StageMultiplex
	// StagePass forwards tuples unchanged (a single-input Union, or a sharing
	// Multiplex).
	StagePass
)

func (k StageKind) String() string {
	switch k {
	case StageMap:
		return "map"
	case StageFilter:
		return "filter"
	case StageMultiplex:
		return "multiplex"
	case StagePass:
		return "pass"
	default:
		return "invalid"
	}
}

// FusedStage is one logical stateless operator folded into a FusedChain.
type FusedStage struct {
	// Name is the logical operator's name (error messages, plan dumps).
	Name string
	// Kind selects the stage behaviour.
	Kind StageKind
	// Map is the stage function of a StageMap.
	Map MapFunc
	// Pred is the predicate of a StageFilter.
	Pred func(core.Tuple) bool
}

func (s FusedStage) validate() error {
	switch s.Kind {
	case StageMap:
		if s.Map == nil {
			return fmt.Errorf("stage %q: map stage needs a Map function", s.Name)
		}
	case StageFilter:
		if s.Pred == nil {
			return fmt.Errorf("stage %q: filter stage needs a Pred function", s.Name)
		}
	case StageMultiplex, StagePass:
	default:
		return fmt.Errorf("stage %q: unknown stage kind %d", s.Name, s.Kind)
	}
	return nil
}

// FusedChain executes a linear chain of stateless logical operators (Map,
// Filter, pass-through Multiplex/Union) in a single goroutine with no
// intermediate streams: each input tuple is pushed through the composed
// stage functions by plain function calls, eliminating the per-hop channel
// synchronisation a chain of standalone operators pays — the framework
// overhead the paper's fixed-per-tuple provenance cost competes with.
//
// Fusion is purely physical: every instrumenter hook fires once per logical
// stage exactly as in the unfused chain (OnMap per tuple a Map stage
// creates, OnMultiplex per cloning pass-through), dropped tuples advertise
// watermark progress with a Heartbeat once per distinct event time, and
// heartbeats entering the chain are forwarded (coalesced against the chain's
// output watermark). The sink-observable output and every tuple's
// contribution graph are identical to running the stages as separate
// operators.
type FusedChain struct {
	name   string
	in     *Stream
	out    *Stream
	stages []FusedStage
	instr  core.Instrumenter

	// Seg, when non-nil, counts the batches and tuple slots absorbed by the
	// fused segment — how much traffic fusion kept off intermediate streams.
	// Set before Run (query.Build does); one nil check per batch.
	Seg *telemetry.SegStats
}

var _ Operator = (*FusedChain)(nil)

// NewFusedChain returns a FusedChain applying the given stages in order; it
// panics if the stage list is empty or a stage is invalid (a programming
// error caught at query-construction time, like NewColAggregate).
func NewFusedChain(name string, in, out *Stream, stages []FusedStage, instr core.Instrumenter) *FusedChain {
	if len(stages) == 0 {
		panic(fmt.Sprintf("fused chain %q: no stages", name))
	}
	for _, s := range stages {
		if err := s.validate(); err != nil {
			panic(fmt.Sprintf("fused chain %q: %v", name, err))
		}
	}
	return &FusedChain{name: name, in: in, out: out, stages: stages, instr: instr}
}

// Name implements Operator.
func (f *FusedChain) Name() string { return f.name }

// Stages returns the number of logical stages fused into the chain.
func (f *FusedChain) Stages() int { return len(f.stages) }

// Run implements Operator. The inner loop iterates input batches and flushes
// the output once per batch, before blocking for more input. Stage errors
// (cancellation while sending, a non-cloneable tuple at a cloning stage) are
// latched into f.err by the composed closures and surfaced after the tuple
// that caused them.
func (f *FusedChain) Run(ctx context.Context) error {
	defer f.out.CloseSend(ctx)
	ap := newStageApplier(f.stages, f.instr,
		func(t core.Tuple) error { return f.out.Send(ctx, t) },
		func(ts int64) error { return f.out.Send(ctx, core.NewHeartbeat(ts)) })
	for {
		batch, ok, err := f.in.RecvBatch(ctx)
		if err != nil {
			return fmt.Errorf("fused chain %q: %w", f.name, err)
		}
		if !ok {
			return nil
		}
		if f.Seg != nil {
			f.Seg.NoteBatch(len(batch))
		}
		for _, t := range batch {
			if core.IsHeartbeat(t) {
				// Heartbeats bypass the stages; like Union, ones at or below
				// the watermark already visible downstream are coalesced.
				err = ap.skip(t.Timestamp())
			} else {
				err = ap.run(t)
			}
			if err != nil {
				return fmt.Errorf("fused chain %q: %w", f.name, err)
			}
		}
		if err := f.out.Flush(ctx); err != nil {
			return fmt.Errorf("fused chain %q: %w", f.name, err)
		}
	}
}

// stageApplier pushes data tuples through a FusedStage list by direct
// function calls, handing survivors to deliver (in order) and the watermarks
// of dropped tuples to drop, coalesced once per distinct event time against
// the last delivered timestamp. It is the per-tuple engine of FusedChain,
// and host operators (ColAggregate, ColJoin, FanIn) reuse it to run a hoisted
// prefix or a fused suffix inline in their own input loop — same semantics
// as a FusedChain feeding them through a stream, minus the stream and the
// goroutine.
type stageApplier struct {
	deliver func(core.Tuple) error
	drop    func(int64) error
	apply   func(core.Tuple)

	err      error
	lastOut  int64
	haveLast bool
}

// newStageApplier composes the per-tuple pipeline back to front: each stage
// closure processes one data tuple and hands its survivors to the next stage
// by a direct call. The closures are allocated once, not per tuple. An empty
// stage list is legal and degenerates to deliver.
func newStageApplier(stages []FusedStage, instr core.Instrumenter, deliver func(core.Tuple) error, drop func(int64) error) *stageApplier {
	a := &stageApplier{deliver: deliver, drop: drop}
	apply := a.send
	for i := len(stages) - 1; i >= 0; i-- {
		st := stages[i]
		next := apply
		switch st.Kind {
		case StageFilter:
			pred := st.Pred
			apply = func(t core.Tuple) {
				if pred(t) {
					next(t)
					return
				}
				a.advertise(t.Timestamp())
			}
		case StageMap:
			fn := st.Map
			// cur and emitted live across the emit closure and the stage
			// body; they are rebound per input tuple, never allocated.
			var cur core.Tuple
			var emitted bool
			emit := func(out core.Tuple) {
				if a.err != nil {
					return
				}
				if out != cur {
					if om, im := core.MetaOf(out), core.MetaOf(cur); om != nil && im != nil {
						om.MergeStimulus(im.Stimulus())
					}
					instr.OnMap(out, cur)
				}
				emitted = true
				next(out)
			}
			apply = func(t core.Tuple) {
				cur, emitted = t, false
				fn(t, emit)
				if !emitted {
					// A dropping Map creates sparsity, like Filter.
					a.advertise(t.Timestamp())
				}
			}
		case StageMultiplex:
			name := st.Name
			apply = func(t core.Tuple) {
				if core.MetaOf(t) == nil {
					next(t) // nothing to keep single-writer, as in Multiplex
					return
				}
				c, ok := t.(core.Cloneable)
				if !ok {
					if a.err == nil {
						a.err = fmt.Errorf("stage %q: %w (%T)", name, ErrNotCloneable, t)
					}
					return
				}
				branch := c.CloneTuple()
				instr.OnMultiplex(branch, t)
				next(branch)
			}
		case StagePass:
			apply = next
		}
	}
	a.apply = apply
	return a
}

// send delivers a data tuple that survived every stage.
func (a *stageApplier) send(t core.Tuple) {
	if a.err != nil {
		return
	}
	a.lastOut, a.haveLast = t.Timestamp(), true
	if err := a.deliver(t); err != nil {
		a.err = err
	}
}

// advertise publishes watermark progress for a dropped tuple (or an incoming
// heartbeat), once per distinct event time: any output at or past ts already
// promises the same watermark, streams being timestamp-sorted.
func (a *stageApplier) advertise(ts int64) {
	if a.err != nil || (a.haveLast && ts <= a.lastOut) {
		return
	}
	a.lastOut, a.haveLast = ts, true
	if err := a.drop(ts); err != nil {
		a.err = err
	}
}

// run pushes one data tuple through the stages; it returns the first error
// latched by the delivery callbacks (or a non-cloneable tuple at a cloning
// stage), after which the applier is inert.
func (a *stageApplier) run(t core.Tuple) error {
	a.apply(t)
	return a.err
}

// skip advertises an incoming heartbeat's watermark, bypassing the stages.
func (a *stageApplier) skip(ts int64) error {
	a.advertise(ts)
	return a.err
}
