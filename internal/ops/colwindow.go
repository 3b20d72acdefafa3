package ops

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"genealog/internal/core"
)

// ColWindow is the struct-of-arrays window state of one aggregate group (or
// one join side): the buffered row tuples — still carrying the GeneaLog
// meta-attributes, exactly like a ColBatch's meta column — plus a timestamp
// column and one typed column per schema field, all parallel and
// timestamp-ordered. Appends extract eagerly (batch ingest extracts whole
// runs through a ColBatch first, so the per-append cost is one copy per
// column); purges drop a timestamp-ordered prefix from every column
// together.
//
// A window that purges its last row is compacted to length zero with every
// reference slot (rows, metas, strings) cleared, so an empty ColWindow pins
// no tuple and its backing arrays can be reused by another group: that is
// how ColAggregate recycles retired groups.
type ColWindow struct {
	schema *ColSchema
	// off is the retired prefix of every backing slice: purges advance it in
	// O(1) and the columns compact (live entries copied to the front) only
	// once the dead prefix outgrows the live window — amortized O(1) per
	// appended row, so the backing arrays reach a steady capacity instead of
	// re-growing on every slid window. Rows [off:] are the live window.
	off  int
	rows []core.Tuple
	// metas caches MetaOf(rows[i]), extracted once at append: a window that
	// closes many times (sliding windows) merges stimuli per close, and the
	// meta column turns each merge walk's interface assertion into a
	// contiguous pointer load.
	metas  []*core.Meta
	ts     []int64
	ints   [][]int64
	floats [][]float64
	strs   [][]string
}

// newColWindow returns an empty window buffer for schema.
func newColWindow(schema *ColSchema) *ColWindow {
	schema.index()
	return &ColWindow{
		schema: schema,
		ints:   make([][]int64, schema.nInt),
		floats: make([][]float64, schema.nFloat),
		strs:   make([][]string, schema.nStr),
	}
}

// Len returns the number of buffered (live) rows.
func (w *ColWindow) Len() int { return len(w.rows) - w.off }

// liveRows, liveMetas and liveTs return the live window's columns; indices
// into them are window positions (0 = oldest buffered row).
func (w *ColWindow) liveRows() []core.Tuple  { return w.rows[w.off:] }
func (w *ColWindow) liveMetas() []*core.Meta { return w.metas[w.off:] }
func (w *ColWindow) liveTs() []int64         { return w.ts[w.off:] }

// seg returns the [lo, hi) window-position view handed to fold/probe
// kernels.
func (w *ColWindow) seg(lo, hi int) ColSeg { return ColSeg{w: w, lo: w.off + lo, hi: w.off + hi} }

// append adds one row whose typed values are gathered from the run columns
// at position pos (the vectorized ingest path: the columns were extracted
// once for the whole run through a ColBatch).
func (w *ColWindow) append(t core.Tuple, ts int64, ints [][]int64, floats [][]float64, strs [][]string, pos int) {
	w.rows = append(w.rows, t)
	w.metas = append(w.metas, core.MetaOf(t))
	w.ts = append(w.ts, ts)
	for s, col := range ints {
		w.ints[s] = append(w.ints[s], col[pos])
	}
	for s, col := range floats {
		w.floats[s] = append(w.floats[s], col[pos])
	}
	for s, col := range strs {
		w.strs[s] = append(w.strs[s], col[pos])
	}
}

// appendRow adds one row, extracting its typed values directly (the
// per-tuple path: a join's merge delivers tuple-at-a-time).
func (w *ColWindow) appendRow(t core.Tuple, ts int64) {
	w.rows = append(w.rows, t)
	w.metas = append(w.metas, core.MetaOf(t))
	w.ts = append(w.ts, ts)
	for i, f := range w.schema.Fields {
		slot := w.schema.slot[i]
		switch f.Kind {
		case ColInt64:
			w.ints[slot] = append(w.ints[slot], f.Int(t))
		case ColFloat64:
			w.floats[slot] = append(w.floats[slot], f.Float(t))
		case ColString:
			w.strs[slot] = append(w.strs[slot], f.Str(t))
		}
	}
}

// purge drops the first n live rows from every column by advancing the dead
// prefix — O(1) per purge instead of compacting every surviving entry of
// every column (a sliding window purges on every advance, so a compacting
// purge would cost O(window x columns) each time). Reference-holding
// prefixes are cleared so the garbage collector can reclaim retired tuples
// (challenge C2); the columns compact once the dead prefix outgrows the live
// window, keeping memory bounded by a small multiple of the peak live
// window.
func (w *ColWindow) purge(n int) {
	if n == 0 {
		return
	}
	for i := w.off; i < w.off+n; i++ {
		w.rows[i] = nil
		w.metas[i] = nil
	}
	for s := range w.strs {
		col := w.strs[s]
		for i := w.off; i < w.off+n; i++ {
			col[i] = ""
		}
	}
	w.off += n
	if w.off > len(w.rows)-w.off {
		w.compact()
	}
}

// compact copies the live window to the front of every backing array and
// clears the freed tail references.
func (w *ColWindow) compact() {
	live := len(w.rows) - w.off
	copy(w.rows, w.rows[w.off:])
	for i := live; i < len(w.rows); i++ {
		w.rows[i] = nil
	}
	w.rows = w.rows[:live]
	copy(w.metas, w.metas[w.off:])
	for i := live; i < len(w.metas); i++ {
		w.metas[i] = nil
	}
	w.metas = w.metas[:live]
	copy(w.ts, w.ts[w.off:])
	w.ts = w.ts[:live]
	for s := range w.ints {
		copy(w.ints[s], w.ints[s][w.off:])
		w.ints[s] = w.ints[s][:live]
	}
	for s := range w.floats {
		copy(w.floats[s], w.floats[s][w.off:])
		w.floats[s] = w.floats[s][:live]
	}
	for s, col := range w.strs {
		copy(col, col[w.off:])
		for i := live; i < len(col); i++ {
			col[i] = ""
		}
		w.strs[s] = col[:live]
	}
	w.off = 0
}

// ColSeg is a read-only struct-of-arrays view of a window segment: the
// contiguous rows of one group's window [lo, hi), with the typed columns the
// owning operator's ColSchema declared. Fold and probe kernels receive a
// ColSeg instead of a row slice; its accessors mirror ColBatch (columns are
// addressed by schema field index), but every column is already materialized
// — window state extracts at ingest, so a window that closes many times
// (sliding windows) never re-extracts.
//
// A kernel must treat the segment as immutable: no writes into a returned
// column, no retaining a column or Rows() beyond the call (the buffers are
// recycled as windows slide), and no shared-state writes — the same purity
// contract ColBatch kernels have, enforced by genealog-lint's kernelpurity
// and colkind analyzers.
type ColSeg struct {
	w      *ColWindow
	lo, hi int
}

// NewColSeg materializes rows (timestamp-ordered, heartbeat-free) into a
// standalone window segment under schema — a convenience for unit-testing
// fold and probe kernels outside an operator: the segment carries exactly
// the columns a ColAggregate or ColJoin would hand the kernel for a window
// holding those rows.
func NewColSeg(schema *ColSchema, rows []core.Tuple) ColSeg {
	w := newColWindow(schema)
	for _, t := range rows {
		w.appendRow(t, t.Timestamp())
	}
	return w.seg(0, w.Len())
}

// Len returns the number of rows in the segment.
func (s *ColSeg) Len() int { return s.hi - s.lo }

// Rows returns the segment's row tuples (timestamp-ordered, oldest first) —
// the window a derived spec's row Fold receives.
func (s *ColSeg) Rows() []core.Tuple { return s.w.rows[s.lo:s.hi] }

// Timestamps returns the segment's event-time column.
func (s *ColSeg) Timestamps() []int64 { return s.w.ts[s.lo:s.hi] }

// Int64s returns the column of schema field `field`, which must be ColInt64.
func (s *ColSeg) Int64s(field int) []int64 {
	return s.w.ints[s.w.schema.slot[field]][s.lo:s.hi]
}

// Float64s returns the column of schema field `field`, which must be
// ColFloat64.
func (s *ColSeg) Float64s(field int) []float64 {
	return s.w.floats[s.w.schema.slot[field]][s.lo:s.hi]
}

// Strings returns the column of schema field `field`, which must be
// ColString.
func (s *ColSeg) Strings(field int) []string {
	return s.w.strs[s.w.schema.slot[field]][s.lo:s.hi]
}

// AggKernel is the vectorized form of an AggregateFunc: it folds one group's
// window segment [start, end) into the output tuple, or returns nil to emit
// nothing. It must compute exactly what the row Fold computes over
// seg.Rows() — the operator stamps the output timestamp, merges stimuli and
// links provenance the same way for every kernel, so a matching kernel
// makes vectorized execution byte-identical to the derived spec's.
type AggKernel func(seg *ColSeg, start, end int64, key string) core.Tuple

// ProbeKernel is the vectorized residual of a keyed join predicate: the
// hash probe already restricted cand's positions in sel to the incoming
// tuple's equi-join key (in arrival order), and the kernel appends to dst
// the positions whose pairs additionally satisfy the predicate's residual
// condition, preserving order, and returns dst. A pure equi-join declares no
// residual and skips the kernel call entirely.
type ProbeKernel func(t core.Tuple, cand *ColSeg, sel []int, dst []int) []int

// AggColSpec declares the columnar execution of an Aggregate: the window
// columns to buffer, the vectorized group-key extractor, and the fold
// kernel. The planner runs an Aggregate on its declared spec whenever
// vectorization is on, and on DeriveAggColSpec's otherwise.
type AggColSpec struct {
	// Schema declares the columns kept in each group's window state.
	Schema *ColSchema
	// Key is the vectorized twin of the row spec's Key: one key per selected
	// position, batch-wise. Required iff the row spec has a Key.
	Key KeyKernel
	// Fold is the vectorized twin of the row spec's Fold.
	Fold AggKernel
}

// Validate returns an error unless the spec can execute the row spec row.
func (c AggColSpec) Validate(row AggregateSpec) error {
	if c.Schema == nil {
		return errors.New("columnar aggregate needs a Schema")
	}
	if err := c.Schema.Validate(); err != nil {
		return err
	}
	if c.Fold == nil {
		return errors.New("columnar aggregate needs a Fold kernel")
	}
	if (row.Key != nil) != (c.Key != nil) {
		return errors.New("columnar aggregate: Key kernel must mirror the row spec's Key")
	}
	return nil
}

// ColAggregate maintains sliding time-based windows of size WS and advance
// WA, optionally per group-by value, and folds each closed window into one
// output tuple (paper §2). Windows are aligned at multiples of WA and close
// when the operator's watermark (the latest input timestamp, inputs being
// timestamp-sorted) passes the window end; remaining windows are flushed at
// end-of-stream. Due windows are emitted in (window start, group key) order,
// keeping the output deterministic and timestamp-sorted.
//
// Provenance (paper §4.1): when a tuple is appended to a group's window the
// instrumenter links the previous group tuple's N meta-attribute to it, and
// each window output is linked to the window's first (U2) and last (U1)
// tuples.
//
// The window state is a ColWindow per group — typed columns extracted
// batch-wise at ingest — and each window close folds a column segment
// through the AggKernel. A spec derived from the row closures
// (DeriveAggColSpec) buffers no columns and folds the segment's row slice.
//
// A hoisted stateless prefix (the planner's shard-lane stages) runs inside
// the operator, with the output a stateless chain feeding the aggregate
// would produce. Columnar stages run in the same selection-vector pass as
// the ingest, so a `vec[... → aggregate]` span crosses rows→columns once;
// row stages run through a stageApplier.
//
// Window state is recycled: a group whose window empties (every group, at
// each close of a tumbling window) moves its ColWindow to a free list, and
// the next new group takes a window from the list before it allocates one,
// keeping the grown column capacity. A recycled window pins nothing — purge
// cleared its reference slots and compacted it to length zero — so the GC
// still reclaims every retired tuple (challenge C2). The list only holds
// windows that were live at the same time, so it never exceeds the peak
// number of live groups.
type ColAggregate struct {
	name   string
	in     *Stream
	out    *Stream
	spec   AggregateSpec
	col    AggColSpec
	instr  core.Instrumenter
	prefix []ColStage
	// rowPrefix is a prefix without kernels; run collects its survivors.
	rowPrefix []FusedStage
	run       []core.Tuple

	groups map[string]*ColWindow
	// free holds the windows of retired groups, emptied and compacted by
	// purge, for ingest to reuse before it builds a new one: a tumbling
	// window retires every group it closes, and without the list each group
	// would regrow all of its columns from zero in every window.
	free []*ColWindow
	// keyOrder holds the live group keys sorted ascending, maintained on
	// group creation and retirement: emissions walk it in order, so closing
	// a window never sorts.
	keyOrder  []string
	nextStart int64
	started   bool

	lastAdv  int64
	haveAdv  bool
	lastEmit int64
	haveEmit bool

	// Per-run scratch, reused across batches (see ColChain). runInts/
	// runFloats/runStrs alias the extracted run columns by schema slot so
	// the ingest loop appends without a per-field kind switch.
	cb        ColBatch
	iota      []int
	selBuf    [2][]int
	outs      []core.Tuple
	keys      []string
	runInts   [][]int64
	runFloats [][]float64
	runStrs   [][]string
	seg       ColSeg
	noopInstr bool
}

var _ Operator = (*ColAggregate)(nil)

// NewColAggregate returns an Aggregate applying a hoisted prefix before the
// windowing: columnar stages (prefix) or row stages (rowPrefix), at most one
// of the two. It panics if the row spec, the columnar spec or a prefix stage
// is invalid (a programming error caught at query-construction time).
func NewColAggregate(name string, in, out *Stream, spec AggregateSpec, col AggColSpec, prefix []ColStage, rowPrefix []FusedStage, instr core.Instrumenter) *ColAggregate {
	if err := spec.validate(); err != nil {
		panic(fmt.Sprintf("aggregate %q: %v", name, err))
	}
	if err := col.Validate(spec); err != nil {
		panic(fmt.Sprintf("aggregate %q: %v", name, err))
	}
	if len(prefix) > 0 && len(rowPrefix) > 0 {
		panic(fmt.Sprintf("aggregate %q: a prefix is either columnar or row stages, not both", name))
	}
	for _, s := range prefix {
		if err := s.validate(); err != nil {
			panic(fmt.Sprintf("aggregate %q: %v", name, err))
		}
	}
	for _, s := range rowPrefix {
		if err := s.validate(); err != nil {
			panic(fmt.Sprintf("aggregate %q: %v", name, err))
		}
	}
	if spec.OutputTs == 0 {
		spec.OutputTs = WindowStartTs
	}
	_, noop := instr.(core.Noop)
	return &ColAggregate{
		name: name, in: in, out: out, spec: spec, col: col, instr: instr,
		prefix: prefix, rowPrefix: rowPrefix, groups: make(map[string]*ColWindow), noopInstr: noop,
	}
}

// Name implements Operator.
func (a *ColAggregate) Name() string { return a.name }

// Stages returns the number of prefix stages fused into the operator.
func (a *ColAggregate) Stages() int { return len(a.prefix) + len(a.rowPrefix) }

// Run implements Operator. Each input batch is split into maximal
// heartbeat-free runs; every run flows through the prefix kernels as a
// column-bound view of the batch, and the survivors append into per-group
// window state in one pass. With a row prefix, the batch runs through the
// stages first and the survivors between two watermark drops form the runs.
// The output is flushed once per input batch.
func (a *ColAggregate) Run(ctx context.Context) error {
	defer a.out.CloseSend(ctx)
	var ap *stageApplier
	if len(a.rowPrefix) > 0 {
		ap = newStageApplier(a.rowPrefix, a.instr,
			func(t core.Tuple) error { a.run = append(a.run, t); return nil },
			func(ts int64) error {
				if err := a.ingestRun(ctx); err != nil {
					return err
				}
				return a.heartbeat(ctx, ts)
			})
	}
	for {
		batch, ok, err := a.in.RecvBatch(ctx)
		if err != nil {
			return fmt.Errorf("aggregate %q: %w", a.name, err)
		}
		if !ok {
			if err := a.flush(ctx); err != nil {
				return fmt.Errorf("aggregate %q: %w", a.name, err)
			}
			return nil
		}
		for i := 0; i < len(batch) && err == nil; {
			t, j := batch[i], i+1
			switch {
			case ap != nil && core.IsHeartbeat(t):
				err = ap.skip(t.Timestamp())
			case ap != nil:
				err = ap.run(t)
			case core.IsHeartbeat(t):
				err = a.heartbeat(ctx, t.Timestamp())
			default:
				for j < len(batch) && !core.IsHeartbeat(batch[j]) {
					j++
				}
				err = a.processRun(ctx, batch[i:j])
			}
			i = j
		}
		if ap != nil && err == nil {
			err = a.ingestRun(ctx)
		}
		if err != nil {
			return fmt.Errorf("aggregate %q: %w", a.name, err)
		}
		if err := a.out.Flush(ctx); err != nil {
			return fmt.Errorf("aggregate %q: %w", a.name, err)
		}
	}
}

// ingestRun ingests the row prefix's collected survivors and clears the
// buffer, so it pins no tuple.
func (a *ColAggregate) ingestRun(ctx context.Context) error {
	err := a.processRun(ctx, a.run)
	clear(a.run)
	a.run = a.run[:0]
	return err
}

// heartbeat advances the watermark without a tuple, closing due windows.
func (a *ColAggregate) heartbeat(ctx context.Context, ts int64) error {
	if a.started {
		if err := a.closeDue(ctx, ts); err != nil {
			return err
		}
	}
	return a.advertise(ctx, ts)
}

// processRun pushes one run of data tuples through the prefix kernels, then
// ingests the result in row order: dead positions advance the watermark at
// the timestamp the tuple carried when it was dropped, live positions close
// due windows and append to their group's window — the exact sequence a
// stateless chain feeding the aggregate produces.
func (a *ColAggregate) processRun(ctx context.Context, rows []core.Tuple) error {
	if len(rows) == 0 {
		return nil
	}
	sel := growIota(&a.iota, len(rows))
	if cap(a.selBuf[0]) < len(rows) {
		a.selBuf[0] = make([]int, 0, len(rows))
		a.selBuf[1] = make([]int, 0, len(rows))
	}
	buf := 0
	fresh := true
	for _, st := range a.prefix {
		if len(sel) == 0 {
			break
		}
		a.cb.bind(st.Schema, rows, sel)
		if fresh {
			a.cb.invalidate()
			fresh = false
		}
		switch st.Kind {
		case StageFilter:
			dst := st.Filter(&a.cb, sel, a.selBuf[buf][:0])
			a.selBuf[buf] = dst
			sel = dst
			buf ^= 1
		case StageMap:
			dst := a.outs[:0]
			if dst == nil {
				dst = emptyOuts
			}
			outs := st.Map(&a.cb, sel, dst)
			if outs == nil {
				// Identity: nothing to merge or report (see ColChain).
				continue
			}
			a.outs = outs
			if len(a.outs) != len(sel) {
				return fmt.Errorf("stage %q: map kernel returned %d outputs for %d inputs (kernels are strictly one-to-one)",
					st.Name, len(a.outs), len(sel))
			}
			changed := false
			for i, pos := range sel {
				out, in := a.outs[i], rows[pos]
				if out != in {
					if om, im := core.MetaOf(out), core.MetaOf(in); om != nil && im != nil {
						om.MergeStimulus(im.Stimulus())
					}
					if !a.noopInstr {
						a.instr.OnMap(out, in)
					}
					rows[pos] = out
					changed = true
				}
			}
			if changed {
				a.cb.invalidate()
			}
		}
	}
	// Extract the window columns and group keys for the whole run of
	// survivors in one pass.
	var tss []int64
	if len(sel) > 0 {
		a.cb.bind(a.col.Schema, rows, sel)
		if fresh {
			a.cb.invalidate()
		}
		tss = a.cb.Timestamps()
		a.bindRunCols()
		if a.col.Key != nil {
			a.keys = a.col.Key(&a.cb, sel, a.keys[:0])
			if len(a.keys) != len(sel) {
				return fmt.Errorf("aggregate key kernel returned %d keys for %d inputs", len(a.keys), len(sel))
			}
		}
	}
	k := 0
	for pos, t := range rows {
		if k < len(sel) && sel[k] == pos {
			key := ""
			if a.col.Key != nil {
				key = a.keys[k]
			}
			if err := a.ingest(ctx, t, tss[pos], key, pos); err != nil {
				return err
			}
			k++
			continue
		}
		// rows[pos] still holds the tuple as of the stage that dropped it,
		// so the watermark advances at the timestamp it was dropped with.
		ts := t.Timestamp()
		if a.started {
			if err := a.closeDue(ctx, ts); err != nil {
				return err
			}
		}
		if err := a.advertise(ctx, ts); err != nil {
			return err
		}
	}
	return nil
}

// bindRunCols aliases the run's extracted columns by schema slot.
func (a *ColAggregate) bindRunCols() {
	s := a.col.Schema
	a.runInts = ensureSlots(a.runInts[:0], s.nInt)
	a.runFloats = ensureSlots(a.runFloats[:0], s.nFloat)
	a.runStrs = ensureSlots(a.runStrs[:0], s.nStr)
	for i, f := range s.Fields {
		switch f.Kind {
		case ColInt64:
			a.runInts[s.slot[i]] = a.cb.Int64s(i)
		case ColFloat64:
			a.runFloats[s.slot[i]] = a.cb.Float64s(i)
		case ColString:
			a.runStrs[s.slot[i]] = a.cb.Strings(i)
		}
	}
}

// ingest appends one surviving tuple to its group's window state, closing
// due windows first.
func (a *ColAggregate) ingest(ctx context.Context, t core.Tuple, ts int64, key string, pos int) error {
	if !a.started {
		a.started = true
		a.nextStart = firstWindowStart(ts, a.spec.WS, a.spec.WA)
	}
	if err := a.closeDue(ctx, ts); err != nil {
		return err
	}
	g := a.groups[key]
	if g == nil {
		if n := len(a.free); n > 0 {
			g = a.free[n-1]
			a.free = a.free[:n-1]
		} else {
			g = newColWindow(a.col.Schema)
		}
		a.groups[key] = g
		i := sort.SearchStrings(a.keyOrder, key)
		a.keyOrder = append(a.keyOrder, "")
		copy(a.keyOrder[i+1:], a.keyOrder[i:])
		a.keyOrder[i] = key
	}
	if n := g.Len(); n > 0 && !a.noopInstr {
		a.instr.OnAggregateLink(g.liveRows()[n-1], t)
	}
	g.append(t, ts, a.runInts, a.runFloats, a.runStrs, pos)
	return a.advertise(ctx, ts)
}

// closeDue emits every window that ends at or before the watermark.
func (a *ColAggregate) closeDue(ctx context.Context, watermark int64) error {
	for a.nextStart+a.spec.WS <= watermark {
		if err := a.emitDue(ctx); err != nil {
			return err
		}
		a.advance()
	}
	return nil
}

// emitDue folds the window [nextStart, nextStart+WS) of every group holding
// rows in that range through the fold kernel and sends the results in
// group-key order.
func (a *ColAggregate) emitDue(ctx context.Context) error {
	start, end := a.nextStart, a.nextStart+a.spec.WS
	// keyOrder is maintained sorted as groups come and go, so a closing
	// window emits by walking it — no per-emission collect-and-sort.
	for _, key := range a.keyOrder {
		g := a.groups[key]
		ts := g.liveTs()
		// A window closes before any tuple at or past its end is buffered
		// (ingest closes due windows before it appends), so the window runs
		// to the group's last row.
		lo, hi := sort.Search(len(ts), func(i int) bool { return ts[i] >= start }), len(ts)
		if lo >= hi {
			continue
		}
		// The segment handed to the kernel lives in the operator: a local
		// would escape through the indirect call, one allocation per fold.
		a.seg = g.seg(lo, hi)
		out := a.col.Fold(&a.seg, start, end, key)
		if out == nil {
			continue
		}
		win := g.liveRows()[lo:hi]
		if m := core.MetaOf(out); m != nil {
			if a.spec.OutputTs == WindowEndTs {
				m.SetTimestamp(end)
			} else {
				m.SetTimestamp(start)
			}
			// The window's meta column was extracted at ingest; the merge
			// walk reads it instead of re-asserting every row tuple.
			for _, wm := range g.liveMetas()[lo:hi] {
				if wm != nil {
					m.MergeStimulus(wm.Stimulus())
				}
			}
		}
		instrumentAggEmit(a.instr, a.spec.Contributors, out, win)
		a.lastEmit, a.haveEmit = out.Timestamp(), true
		if err := a.out.Send(ctx, out); err != nil {
			return err
		}
	}
	return nil
}

// advertise emits a Heartbeat carrying the operator's output watermark: no
// future window output can precede nextStart (or, before the first tuple,
// the earliest window that could hold a tuple at or after the input
// watermark). Downstream deterministic merges need this to keep moving while
// the aggregate is between outputs.
func (a *ColAggregate) advertise(ctx context.Context, inputWatermark int64) error {
	var adv int64
	if a.started {
		adv = a.nextStart
	} else {
		adv = firstWindowStart(inputWatermark, a.spec.WS, a.spec.WA)
	}
	if a.spec.OutputTs == WindowEndTs {
		adv += a.spec.WS
	}
	if a.haveAdv && adv <= a.lastAdv {
		return nil
	}
	if a.haveEmit && adv <= a.lastEmit {
		return nil
	}
	a.lastAdv, a.haveAdv = adv, true
	return a.out.Send(ctx, core.NewHeartbeat(adv))
}

// advance moves to the next window and purges rows no future window can
// contain, fast-forwarding over empty windows. A group whose window empties
// retires to the free list.
func (a *ColAggregate) advance() {
	a.nextStart += a.spec.WA
	keep := a.keyOrder[:0]
	for _, key := range a.keyOrder {
		g := a.groups[key]
		ts := g.liveTs()
		i := 0
		for i < len(ts) && ts[i] < a.nextStart {
			i++
		}
		g.purge(i)
		if g.Len() == 0 {
			delete(a.groups, key)
			a.free = append(a.free, g)
		} else {
			keep = append(keep, key)
		}
	}
	a.keyOrder = keep
	if min, ok := a.minBufferedTs(); ok {
		if skip := firstWindowStart(min, a.spec.WS, a.spec.WA); skip > a.nextStart {
			a.nextStart = skip
		}
	}
}

func (a *ColAggregate) minBufferedTs() (int64, bool) {
	var min int64
	found := false
	for _, g := range a.groups {
		if g.Len() == 0 {
			continue
		}
		if ts := g.liveTs()[0]; !found || ts < min {
			min = ts
			found = true
		}
	}
	return min, found
}

// flush closes every remaining window at end-of-stream.
func (a *ColAggregate) flush(ctx context.Context) error {
	for len(a.groups) > 0 {
		if err := a.emitDue(ctx); err != nil {
			return err
		}
		a.advance()
	}
	return nil
}

// growIota grows *buf to the identity selection [0..n) and returns it;
// kernels never write it, so the grown buffer is reused across runs.
func growIota(buf *[]int, n int) []int {
	b := *buf
	if cap(b) < n {
		b = make([]int, 0, n)
	}
	for len(b) < n {
		b = append(b, len(b))
	}
	*buf = b
	return b[:n]
}
