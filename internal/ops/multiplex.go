package ops

import (
	"context"
	"errors"
	"fmt"

	"genealog/internal/core"
)

// ErrNotCloneable is returned when a cloning Multiplex receives a tuple that
// carries meta-attributes but does not implement core.Cloneable.
var ErrNotCloneable = errors.New("multiplex: tuple does not implement core.Cloneable")

// Multiplex copies each input tuple to every output stream (paper §2). A
// cloning Multiplex hands each branch its own copy linked to the original
// through the instrumenter (GL: U1, Type=MULTIPLEX); a sharing one forwards
// the same tuple object to every branch. The query planner decides which,
// per Multiplex: NP always shares, BL always clones, and GL clones only
// where two branches could write the N chain of the same object (see
// core.Instrumenter.NeedsMultiplexClone). A cloning Multiplex still forwards
// a tuple without meta-attributes (core.MetaOf is nil) unchanged.
type Multiplex struct {
	name  string
	in    *Stream
	outs  []*Stream
	instr core.Instrumenter
	clone bool
}

var _ Operator = (*Multiplex)(nil)

// NewMultiplex returns a Multiplex operator with the given output branches;
// clone selects per-branch copies linked by instr.OnMultiplex.
func NewMultiplex(name string, in *Stream, outs []*Stream, instr core.Instrumenter, clone bool) *Multiplex {
	return &Multiplex{name: name, in: in, outs: outs, instr: instr, clone: clone}
}

// Name implements Operator.
func (x *Multiplex) Name() string { return x.name }

// Run implements Operator. The inner loop iterates input batches and
// flushes every branch once per batch, before blocking for more input.
func (x *Multiplex) Run(ctx context.Context) error {
	defer closeAll(ctx, x.outs)
	for {
		batch, ok, err := x.in.RecvBatch(ctx)
		if err != nil {
			return fmt.Errorf("multiplex %q: %w", x.name, err)
		}
		if !ok {
			return nil
		}
		for _, t := range batch {
			for _, out := range x.outs {
				branch := t
				switch {
				case core.IsHeartbeat(t):
					// Each branch gets its own marker: a shared one could be
					// mutated concurrently by the branches' instrumenters.
					branch = core.NewHeartbeat(t.Timestamp())
				case x.clone && core.MetaOf(t) != nil:
					// A meta-less tuple has no N to keep single-writer, so
					// every branch takes it as it is.
					c, ok := t.(core.Cloneable)
					if !ok {
						return fmt.Errorf("multiplex %q: %w (%T)", x.name, ErrNotCloneable, t)
					}
					branch = c.CloneTuple()
					x.instr.OnMultiplex(branch, t)
				}
				if err := out.Send(ctx, branch); err != nil {
					return fmt.Errorf("multiplex %q: %w", x.name, err)
				}
			}
		}
		for _, out := range x.outs {
			if err := out.Flush(ctx); err != nil {
				return fmt.Errorf("multiplex %q: %w", x.name, err)
			}
		}
	}
}
