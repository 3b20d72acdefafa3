package ops

import (
	"context"
	"errors"
	"fmt"

	"genealog/internal/core"
)

// JoinColSpec declares the columnar execution of a Join: hash-probed window
// state instead of a full-buffer predicate scan. The contract tying it to
// the row spec is that the row Predicate must be exactly
//
//	LeftKey(l) == RightKey(r)  &&  residual(l, r)
//
// — the key equality a sharded join already requires, plus an optional
// residual condition. The hash probe enforces the key equality; the residual
// kernels, when declared, filter the same-key candidates over typed columns.
// A pure equi-join (like Q4's meter match) declares no residual and the
// probe's candidate list is the final match list. An unkeyed Join probes one
// constant key, so its spec must carry the whole predicate as residuals
// (DeriveJoinColSpec does).
type JoinColSpec struct {
	// Left and Right declare the columns buffered per side's window state;
	// required only when the residual kernels read them (both may be nil for
	// a pure equi-join).
	Left, Right *ColSchema
	// ResidualL filters candidates when the incoming tuple is a left tuple
	// (cand is the right buffer, under the Right schema); ResidualR when it
	// is a right tuple (cand is the left buffer, under Left). Both or
	// neither must be set.
	ResidualL, ResidualR ProbeKernel
}

// Validate returns an error unless the spec can execute the row spec row.
func (c JoinColSpec) Validate(row JoinSpec) error {
	if (c.ResidualL != nil) != (c.ResidualR != nil) {
		return errors.New("columnar join: ResidualL and ResidualR must be set together")
	}
	if c.ResidualL == nil {
		if !row.keyed() {
			return errors.New("columnar join: an unkeyed spec needs residual kernels (its constant key matches every pair)")
		}
		return nil
	}
	if c.Left == nil || c.Right == nil {
		return errors.New("columnar join: residual kernels need the Left and Right schemas")
	}
	if err := c.Left.Validate(); err != nil {
		return err
	}
	return c.Right.Validate()
}

// emptyColSchema backs window state with no declared columns — rows,
// timestamps and metas only: a join side without a schema, and every
// derived spec.
var emptyColSchema = &ColSchema{}

// colJoinBuf is one side's window state: a ColWindow for the rows,
// timestamps and typed columns, the precomputed equi-join keys, and a hash
// index from key to buffered positions in arrival order. Positions in the
// index are logical (monotonic since stream start); base maps them to the
// current physical offsets, so purges never rewrite the index — they pop
// each purged row's entry off the head of its key's list, which holds
// because purges remove a global arrival-order prefix.
type colJoinBuf struct {
	w     *ColWindow
	keys  []string
	base  int
	index map[string][]int
}

func newColJoinBuf(schema *ColSchema) colJoinBuf {
	if schema == nil {
		schema = emptyColSchema
	}
	return colJoinBuf{w: newColWindow(schema), index: make(map[string][]int)}
}

// append buffers one tuple under its equi-join key.
func (b *colJoinBuf) append(t core.Tuple, ts int64, key string) {
	b.index[key] = append(b.index[key], b.base+b.w.Len())
	b.keys = append(b.keys, key)
	b.w.appendRow(t, ts)
}

// purge drops the (timestamp-ordered) prefix strictly older than horizon
// from the window state and the hash index.
func (b *colJoinBuf) purge(horizon int64) {
	ts := b.w.liveTs()
	n := 0
	for n < len(ts) && ts[n] < horizon {
		n++
	}
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		key := b.keys[i]
		list := b.index[key]
		if len(list) == 1 {
			delete(b.index, key)
		} else {
			b.index[key] = list[1:]
		}
	}
	// Advance the slice header like ColWindow.purge — O(1), with the dead
	// prefix reclaimed on a later growing append.
	for i := 0; i < n; i++ {
		b.keys[i] = ""
	}
	b.keys = b.keys[n:]
	b.w.purge(n)
	b.base += n
}

// release drops the whole window state at end-of-stream.
func (b *colJoinBuf) release() {
	b.w = nil
	b.keys = nil
	b.index = nil
}

// ColJoin produces one output tuple for every pair of left/right tuples
// within event-time distance WS that satisfies the predicate (paper §2). The
// two inputs are consumed through the deterministic timestamp-sorted merge,
// so the match order — and therefore the output — is deterministic. Each
// output is linked to its two contributors through the instrumenter (U1 =
// the more recent, U2 = the older, Type=JOIN; paper §4.1).
//
// Each side's window state is a hash-indexed colJoinBuf: a probe touches
// only the buffered tuples sharing the incoming tuple's key, in arrival
// order, and the residual kernels (if any) filter them. Purges keep every
// candidate within WS, so no per-pair window check is needed. Outputs leave
// sorted by (timestamp, left key, right key), stably, once the watermark
// passes them — the sequence a sharded deployment's fan-in reconstructs; an
// unkeyed join (one constant key) thus emits in match order.
type ColJoin struct {
	joinEmitter

	name    string
	left    *Stream
	right   *Stream
	spec    JoinSpec
	col     JoinColSpec
	instr   core.Instrumenter
	prefixL []FusedStage
	prefixR []FusedStage

	bufL colJoinBuf
	bufR colJoinBuf

	// Probe scratch: phys holds the candidates' physical positions, res the
	// residual kernel's output buffer, seg the candidate segment handed to
	// the residual kernel (a local would escape through the indirect call,
	// one allocation per probe).
	phys []int
	res  []int
	seg  ColSeg
}

var _ Operator = (*ColJoin)(nil)

// NewColJoin returns a Join applying each side's hoisted prefix (either may
// be empty) inside the merge loop, as a per-lane FusedChain would. Prefixes
// are row stages (the merge consumes tuple-at-a-time) and must preserve
// timestamps, which the planner guarantees by hoisting only Map-free chains
// above join partitions. A spec without both keys probes one constant key on
// both sides. It panics if the row spec, the columnar spec or a stage is
// invalid (a programming error caught at query-construction time).
func NewColJoin(name string, left, right, out *Stream, spec JoinSpec, col JoinColSpec, prefixL, prefixR []FusedStage, instr core.Instrumenter) *ColJoin {
	if err := spec.validate(); err != nil {
		panic(fmt.Sprintf("join %q: %v", name, err))
	}
	if err := col.Validate(spec); err != nil {
		panic(fmt.Sprintf("join %q: %v", name, err))
	}
	for _, s := range append(append([]FusedStage(nil), prefixL...), prefixR...) {
		if err := s.validate(); err != nil {
			panic(fmt.Sprintf("join %q: %v", name, err))
		}
	}
	if !spec.keyed() {
		spec.LeftKey, spec.RightKey = constKey, constKey
	}
	return &ColJoin{
		joinEmitter: joinEmitter{out: out},
		name:        name, left: left, right: right, spec: spec, col: col, instr: instr,
		prefixL: prefixL, prefixR: prefixR,
		bufL: newColJoinBuf(col.Left), bufR: newColJoinBuf(col.Right),
	}
}

// constKey is the shared key of both sides of an unkeyed join.
func constKey(core.Tuple) string { return "" }

// Name implements Operator.
func (j *ColJoin) Name() string { return j.name }

// Run implements Operator.
func (j *ColJoin) Run(ctx context.Context) error {
	defer j.out.CloseSend(ctx)
	var apL, apR *stageApplier
	if len(j.prefixL) > 0 {
		apL = newStageApplier(j.prefixL, j.instr,
			func(t core.Tuple) error { return j.step(ctx, t, true) },
			func(ts int64) error { return j.watermark(ctx, ts) })
	}
	if len(j.prefixR) > 0 {
		apR = newStageApplier(j.prefixR, j.instr,
			func(t core.Tuple) error { return j.step(ctx, t, false) },
			func(ts int64) error { return j.watermark(ctx, ts) })
	}
	merge := newTSMerge([]*Stream{j.left, j.right})
	merge.onStarve = j.out.Flush
	for {
		t, input, ok, err := merge.Next(ctx)
		if err != nil {
			return fmt.Errorf("join %q: %w", j.name, err)
		}
		if !ok {
			err := j.flushPending(ctx)
			j.bufL.release()
			j.bufR.release()
			j.seg = ColSeg{}
			if err != nil {
				return fmt.Errorf("join %q: %w", j.name, err)
			}
			return nil
		}
		fromLeft := input == 0
		ap := apL
		if !fromLeft {
			ap = apR
		}
		switch {
		case core.IsHeartbeat(t):
			// The watermark (t.ts) bounds every future tuple's timestamp
			// from below, so tuples older than ts-WS on either side can
			// never match again.
			horizon := t.Timestamp() - j.spec.WS
			j.bufL.purge(horizon)
			j.bufR.purge(horizon)
			if ap != nil {
				err = ap.skip(t.Timestamp())
			} else {
				err = j.watermark(ctx, t.Timestamp())
			}
		case ap != nil:
			err = ap.run(t)
		default:
			err = j.step(ctx, t, fromLeft)
		}
		if err != nil {
			return fmt.Errorf("join %q: %w", j.name, err)
		}
	}
}

// step processes one data tuple: purge, hash-probe the opposite buffer's
// same-key candidates in arrival order, emit the matches, insert, advertise.
func (j *ColJoin) step(ctx context.Context, t core.Tuple, fromLeft bool) error {
	ts := t.Timestamp()
	if len(j.pending) > 0 && ts > j.pendingTs {
		if err := j.flushPending(ctx); err != nil {
			return err
		}
	}
	horizon := ts - j.spec.WS
	j.bufL.purge(horizon)
	j.bufR.purge(horizon)
	var key string
	var opp *colJoinBuf
	residual := j.col.ResidualL
	if fromLeft {
		key = j.spec.LeftKey(t)
		opp = &j.bufR
	} else {
		key = j.spec.RightKey(t)
		opp = &j.bufL
		residual = j.col.ResidualR
	}
	phys := j.probe(t, key, opp, residual)
	tm := core.MetaOf(t)
	oppRows, oppMetas, oppTs := opp.w.liveRows(), opp.w.liveMetas(), opp.w.liveTs()
	for _, i := range phys {
		o := oppRows[i]
		l, r := t, o
		lk, rk := key, opp.keys[i]
		if !fromLeft {
			l, r = o, t
			lk, rk = opp.keys[i], key
		}
		out := j.spec.Combine(l, r)
		if out == nil {
			continue
		}
		if m := core.MetaOf(out); m != nil {
			// The buffered side's meta and timestamp come from the window
			// columns extracted at append; t's meta is asserted once per
			// probe, not once per match.
			m.SetTimestamp(max(ts, oppTs[i]))
			lm, rm := tm, oppMetas[i]
			if !fromLeft {
				lm, rm = rm, lm
			}
			if lm != nil {
				m.MergeStimulus(lm.Stimulus())
			}
			if rm != nil {
				m.MergeStimulus(rm.Stimulus())
			}
		}
		// The incoming tuple t is at least as recent as the buffered o.
		j.instr.OnJoin(out, t, o)
		j.hold(out, lk, rk)
	}
	if fromLeft {
		j.bufL.append(t, ts, key)
	} else {
		j.bufR.append(t, ts, key)
	}
	// A join between matches creates sparsity; keep downstream merges
	// informed of the watermark.
	return j.watermark(ctx, ts)
}

// probe returns the physical positions in opp of t's matches, in arrival
// order: the candidates sharing t's key, filtered by the residual kernel
// when there is one.
func (j *ColJoin) probe(t core.Tuple, key string, opp *colJoinBuf, residual ProbeKernel) []int {
	phys := j.phys[:0]
	for _, lp := range opp.index[key] {
		phys = append(phys, lp-opp.base)
	}
	j.phys = phys
	if residual == nil || len(phys) == 0 {
		return phys
	}
	j.seg = opp.w.seg(0, opp.w.Len())
	j.res = residual(t, &j.seg, phys, j.res[:0])
	return j.res
}
