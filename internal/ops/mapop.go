package ops

import (
	"context"
	"fmt"

	"genealog/internal/core"
)

// MapFunc transforms one input tuple into zero or more output tuples by
// calling emit for each. Emitted tuples must carry non-decreasing timestamps
// consistent with the input order (a Map must not reorder the stream).
type MapFunc func(in core.Tuple, emit func(core.Tuple))

// Map produces one or more new tuples per input tuple (paper §2). Each
// output is linked to its input through the instrumenter (U1, Type=MAP) and
// inherits the input's stimulus.
//
// Heartbeats bypass the user function and are forwarded as-is; when the
// function emits nothing for an input tuple (a dropping Map creates
// sparsity), a Heartbeat advertises the watermark instead.
type Map struct {
	name  string
	in    *Stream
	out   *Stream
	fn    MapFunc
	instr core.Instrumenter

	lastOut  int64
	haveLast bool
}

var _ Operator = (*Map)(nil)

// NewMap returns a Map operator.
func NewMap(name string, in, out *Stream, fn MapFunc, instr core.Instrumenter) *Map {
	return &Map{name: name, in: in, out: out, fn: fn, instr: instr}
}

// Name implements Operator.
func (m *Map) Name() string { return m.name }

// Run implements Operator. The inner loop iterates input batches and
// flushes the output once per batch, before blocking for more input. The
// emit closure is allocated once per Run — not once per tuple — and reads
// the current input from the enclosing loop's variables.
func (m *Map) Run(ctx context.Context) error {
	defer m.out.CloseSend(ctx)
	var (
		cur     core.Tuple
		emitted bool
		emitErr error
	)
	emit := func(out core.Tuple) {
		if emitErr != nil {
			return
		}
		// A closure emitting its input created nothing: no stimulus to
		// merge into itself, no self-map for the instrumenter.
		if out != cur {
			if om, im := core.MetaOf(out), core.MetaOf(cur); om != nil && im != nil {
				om.MergeStimulus(im.Stimulus())
			}
			m.instr.OnMap(out, cur)
		}
		emitted = true
		m.lastOut, m.haveLast = out.Timestamp(), true
		emitErr = m.out.Send(ctx, out)
	}
	for {
		batch, ok, err := m.in.RecvBatch(ctx)
		if err != nil {
			return fmt.Errorf("map %q: %w", m.name, err)
		}
		if !ok {
			return nil
		}
		for _, t := range batch {
			if core.IsHeartbeat(t) {
				m.lastOut, m.haveLast = t.Timestamp(), true
				if err := m.out.Send(ctx, t); err != nil {
					return fmt.Errorf("map %q: %w", m.name, err)
				}
				continue
			}
			cur, emitted, emitErr = t, false, nil
			m.fn(t, emit)
			if emitErr != nil {
				return fmt.Errorf("map %q: %w", m.name, emitErr)
			}
			if !emitted && (!m.haveLast || t.Timestamp() > m.lastOut) {
				m.lastOut, m.haveLast = t.Timestamp(), true
				if err := m.out.Send(ctx, core.NewHeartbeat(t.Timestamp())); err != nil {
					return fmt.Errorf("map %q: %w", m.name, err)
				}
			}
		}
		if err := m.out.Flush(ctx); err != nil {
			return fmt.Errorf("map %q: %w", m.name, err)
		}
	}
}
