package ops

import (
	"context"
	"fmt"

	"genealog/internal/core"
	"genealog/internal/telemetry"
)

// ColStage is one logical stateless operator of a ColChain, expressed as a
// typed kernel over the columns of Schema. Only Map and Filter stages can
// vectorize; pass-through Multiplex/Union stages (which exist for provenance
// cloning, an inherently per-tuple row operation) keep the row path.
type ColStage struct {
	// Name is the logical operator's name (error messages, plan dumps).
	Name string
	// Kind selects the stage behaviour: StageMap or StageFilter.
	Kind StageKind
	// Schema declares the columns the kernel reads. Stages sharing a schema
	// pointer share one extraction pass per run of tuples.
	Schema *ColSchema
	// Filter is the kernel of a StageFilter.
	Filter FilterKernel
	// Map is the kernel of a (strictly one-to-one) StageMap.
	Map MapKernel
}

func (s ColStage) validate() error {
	if s.Schema == nil {
		return fmt.Errorf("stage %q: columnar stage needs a Schema", s.Name)
	}
	if err := s.Schema.Validate(); err != nil {
		return fmt.Errorf("stage %q: %w", s.Name, err)
	}
	switch s.Kind {
	case StageMap:
		if s.Map == nil {
			return fmt.Errorf("stage %q: columnar map stage needs a Map kernel", s.Name)
		}
	case StageFilter:
		if s.Filter == nil {
			return fmt.Errorf("stage %q: columnar filter stage needs a Filter kernel", s.Name)
		}
	default:
		return fmt.Errorf("stage %q: stage kind %v cannot vectorize", s.Name, s.Kind)
	}
	return nil
}

// ColChain is the vectorized twin of FusedChain: it executes a linear chain
// of stateless Map/Filter stages whose operators declared typed kernels,
// moving each run of data tuples through the chain as a struct-of-arrays
// ColBatch instead of tuple-at-a-time closure calls. The row↔column
// boundary lives inside the operator: input rows are bound as a ColBatch
// whose columns materialize lazily when a kernel first reads them (one fill
// per column per run, at the live positions only), kernels run over the
// columns with a selection vector of live positions, and the surviving rows
// are materialised back onto the output stream in row order.
//
// Vectorization is purely physical, exactly like fusion: survivors are the
// very tuple objects the row path would forward (Filter) or the kernel's
// outputs linked through the instrumenter with merged stimulus (Map, OnMap
// per created output), dropped tuples advertise watermark progress once per
// distinct event time in row order, and heartbeats are forwarded coalesced.
// The sink-observable output and every contribution graph are byte-identical
// to the same stages running as a FusedChain or as standalone operators.
type ColChain struct {
	name   string
	in     *Stream
	out    *Stream
	stages []ColStage
	instr  core.Instrumenter

	ctx      context.Context
	err      error
	lastOut  int64
	haveLast bool

	// Per-run scratch, reused across batches so steady-state vectorized
	// execution allocates nothing but the Map kernels' output tuples. iota
	// is the identity selection [0,1,2,...], grown once and never written
	// by kernels; selBuf are the two swap buffers filter kernels append
	// into.
	cb     ColBatch
	iota   []int
	selBuf [2][]int
	outs   []core.Tuple

	// noopInstr marks a core.Noop instrumenter, detected once at
	// construction so map stages skip the per-tuple dynamic call — the
	// batch-level devirtualization a vectorized runtime affords.
	noopInstr bool

	// Seg, when non-nil, counts the batches, tuple slots and contiguous
	// data runs absorbed by the vectorized segment. Set before Run
	// (query.Build does); one nil check per batch plus one per run.
	Seg *telemetry.SegStats
}

var _ Operator = (*ColChain)(nil)

// emptyOuts is the non-nil zero-capacity dst handed to a map kernel before
// its chain owns an output buffer; the first real append replaces it.
var emptyOuts = make([]core.Tuple, 0)

// NewColChain returns a ColChain applying the given stages in order; it
// panics if the stage list is empty or a stage is invalid (a programming
// error caught at query-construction time, like NewFusedChain).
func NewColChain(name string, in, out *Stream, stages []ColStage, instr core.Instrumenter) *ColChain {
	if len(stages) == 0 {
		panic(fmt.Sprintf("columnar chain %q: no stages", name))
	}
	for _, s := range stages {
		if err := s.validate(); err != nil {
			panic(fmt.Sprintf("columnar chain %q: %v", name, err))
		}
	}
	_, noop := instr.(core.Noop)
	return &ColChain{name: name, in: in, out: out, stages: stages, instr: instr, noopInstr: noop}
}

// Name implements Operator.
func (c *ColChain) Name() string { return c.name }

// Stages returns the number of logical stages fused into the chain.
func (c *ColChain) Stages() int { return len(c.stages) }

// Run implements Operator. Each input batch is split into maximal runs of
// consecutive data tuples; every run flows through the kernels as a
// column-bound view of the batch itself — no copy — and crosses back to
// rows at delivery. Heartbeats between runs advertise coalesced, in their
// row positions. The output is flushed once per input batch, before
// blocking for more input.
func (c *ColChain) Run(ctx context.Context) error {
	defer c.out.CloseSend(ctx)
	c.ctx = ctx
	for {
		batch, ok, err := c.in.RecvBatch(ctx)
		if err != nil {
			return fmt.Errorf("columnar chain %q: %w", c.name, err)
		}
		if !ok {
			return nil
		}
		if c.Seg != nil {
			c.Seg.NoteBatch(len(batch))
		}
		// The chain owns the received batch until the next RecvBatch, so
		// runs are processed as in-place subslices; a Map stage rewrites
		// survivor positions directly.
		for i := 0; i < len(batch); {
			t := batch[i]
			if core.IsHeartbeat(t) {
				c.advertise(t.Timestamp())
				i++
			} else {
				j := i + 1
				for j < len(batch) && !core.IsHeartbeat(batch[j]) {
					j++
				}
				if c.Seg != nil {
					c.Seg.NoteRun()
				}
				c.processRun(batch[i:j])
				i = j
			}
			if c.err != nil {
				return fmt.Errorf("columnar chain %q: %w", c.name, c.err)
			}
		}
		if err := c.out.Flush(ctx); err != nil {
			return fmt.Errorf("columnar chain %q: %w", c.name, err)
		}
	}
}

// processRun pushes one run of data tuples through the kernels and
// materialises the result in row order: live positions deliver, dead
// positions advertise the timestamp the tuple carried when its filter
// dropped it — the exact deliver/advertise sequence the row path produces.
func (c *ColChain) processRun(rows []core.Tuple) {
	if len(rows) == 0 || c.err != nil {
		return
	}
	// sel holds the live positions, in row order, throughout the chain.
	// Filter kernels alternate between the two swap buffers, never writing
	// into the slice they read.
	sel := growIota(&c.iota, len(rows))
	if cap(c.selBuf[0]) < len(rows) {
		c.selBuf[0] = make([]int, 0, len(rows))
		c.selBuf[1] = make([]int, 0, len(rows))
	}
	buf := 0
	fresh := true
	for _, st := range c.stages {
		if len(sel) == 0 {
			break
		}
		// Binding is lazy: no column is extracted until this stage's
		// kernel reads it, and columns already extracted for an earlier
		// stage of this run under the same schema stay valid. The first
		// bind of a run invalidates — the batch buffer may be recycled.
		// While the selection is still full (sel is a prefix of the
		// identity covering every row) bind with a nil fill selection:
		// lazy fills then range the rows directly instead of walking the
		// selection vector — the per-run extraction fixed cost that
		// dominates small batches.
		fillSel := sel
		if len(sel) == len(rows) {
			fillSel = nil
		}
		c.cb.bind(st.Schema, rows, fillSel)
		if fresh {
			c.cb.invalidate()
			fresh = false
		}
		switch st.Kind {
		case StageFilter:
			dst := st.Filter(&c.cb, sel, c.selBuf[buf][:0])
			c.selBuf[buf] = dst
			sel = dst
			buf ^= 1
		case StageMap:
			dst := c.outs[:0]
			if dst == nil {
				// Kernels always receive a non-nil dst, so a nil return is
				// only ever the deliberate identity signal. The zero-capacity
				// sentinel defers the buffer allocation to the kernel's first
				// append — an identity chain never allocates one.
				dst = emptyOuts
			}
			outs := st.Map(&c.cb, sel, dst)
			if outs == nil {
				// Identity: every selected row maps to itself. Nothing to
				// materialise, no stimulus to merge (a self-merge is a
				// no-op), no self-map to report to the instrumenter, and
				// the extracted columns stay valid. c.outs keeps its
				// buffer for a later transform stage.
				continue
			}
			c.outs = outs
			if len(c.outs) != len(sel) {
				c.err = fmt.Errorf("stage %q: map kernel returned %d outputs for %d inputs (kernels are strictly one-to-one)",
					st.Name, len(c.outs), len(sel))
				return
			}
			changed := false
			for i, pos := range sel {
				out, in := c.outs[i], rows[pos]
				if out != in {
					// Merging a tuple's stimulus into itself is a no-op and
					// the instrumenter never sees a self-map, so identity
					// outputs skip the meta lookups, the hook and the row
					// write. (Returning the input tuple means it is
					// unchanged; a kernel must not mutate a tuple it passes
					// through.)
					if om, im := core.MetaOf(out), core.MetaOf(in); om != nil && im != nil {
						om.MergeStimulus(im.Stimulus())
					}
					if !c.noopInstr {
						c.instr.OnMap(out, in)
					}
					rows[pos] = out
					changed = true
				}
			}
			// c.outs keeps its references until the next map stage
			// overwrites them — the same bounded retention a recycled
			// stream batch already has.
			if changed {
				// Rows changed under the bound slice header; every column
				// extracted so far is stale. A pure-identity pass keeps the
				// extracted columns valid.
				c.cb.invalidate()
			}
		}
	}
	// Every row survived: one bulk gather, no merge-walk.
	if len(sel) == len(rows) {
		c.deliverGather(rows, sel)
		return
	}
	// Materialise by merge-walking rows against the (ascending) survivor
	// positions. Survivors accumulate into a pending segment of sel that is
	// gathered downstream in bulk; a dropped tuple breaks the segment only
	// when its watermark advertisement would actually emit a heartbeat —
	// with pending survivors at the same (or a later) event time the row
	// path suppresses it, so the segment keeps growing. The delivered
	// tuple/heartbeat sequence and the downstream batch boundaries are
	// identical to per-tuple sends.
	k, seg := 0, 0
	for pos, t := range rows {
		if k < len(sel) && sel[k] == pos {
			k++
			continue
		}
		// rows[pos] still holds the tuple as of the stage that dropped it,
		// so its timestamp matches the row path's advertisement.
		ts := t.Timestamp()
		if k > seg {
			if ts <= rows[sel[k-1]].Timestamp() {
				continue // suppressed by the pending survivors
			}
			c.deliverGather(rows, sel[seg:k])
			seg = k
		}
		c.advertise(ts)
		if c.err != nil {
			return
		}
	}
	c.deliverGather(rows, sel[seg:k])
}

// deliverGather sends rows[sel[0]], rows[sel[1]], ... — a segment of
// survivors of every stage — downstream in one bulk gather.
func (c *ColChain) deliverGather(rows []core.Tuple, sel []int) {
	if c.err != nil || len(sel) == 0 {
		return
	}
	c.lastOut, c.haveLast = rows[sel[len(sel)-1]].Timestamp(), true
	if err := c.out.SendGather(c.ctx, rows, sel); err != nil {
		c.err = err
	}
}

// advertise publishes watermark progress for a dropped tuple (or an incoming
// heartbeat), once per distinct event time.
func (c *ColChain) advertise(ts int64) {
	if c.err != nil || (c.haveLast && ts <= c.lastOut) {
		return
	}
	c.lastOut, c.haveLast = ts, true
	if err := c.out.Send(c.ctx, core.NewHeartbeat(ts)); err != nil {
		c.err = err
	}
}
