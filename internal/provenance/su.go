package provenance

import (
	"time"

	"genealog/internal/core"
	"genealog/internal/query"
)

// SUConfig configures a single-stream unfolder.
//
// Inter-process deployments need no extra configuration here: the GL
// instrumenter assigns the ID meta-attribute when a tuple is created, and
// Multiplex copies inherit it (where the planner lets the branches share the
// object, there is only one), so the delivering tuple the SU unfolds and the
// sibling copy the Send serialises always carry the same ID.
type SUConfig struct {
	// OnTraversal, when non-nil, observes the duration of each contribution
	// graph traversal (the Fig. 14 measurement).
	OnTraversal func(d time.Duration, graphSize int)
	// Now supplies the traversal timer clock; defaults to time.Now.
	Now func() time.Time
}

// AddSU adds a single-stream unfolder (paper §5, Fig. 5) in front of a Sink
// or Send. Following Fig. 5B it is composed of standard operators only: a
// Multiplex duplicates the delivering stream and a Map unfolds one branch by
// running the contribution-graph traversal (Listing 1) on every tuple.
//
//	from ──► Multiplex ──► (caller connects to Sink / Send)   ["so" branch]
//	             └───────► Map(findProvenance) ──► unfolded   ["u" branch]
//
// AddSU connects from to the Multiplex and the Multiplex to the Map. It
// returns the Multiplex node (connect it to the Sink or Send to obtain the
// SO stream — the pass-through copy) and the Map node (its output is the
// unfolded stream U; connect it to a ProvenanceSink, a Send, or an MU).
func AddSU(b *query.Builder, name string, from *query.Node, cfg SUConfig) (so, u *query.Node) {
	mux := b.AddMultiplex(name + ".mux")
	unfold := b.AddMap(name+".unfold", unfolder(cfg))
	b.Connect(from, mux)
	b.Connect(mux, unfold)
	return mux, unfold
}

// unfolder returns the SU's unfold Map function, which emits one Record per
// originating tuple of each delivering tuple. The traversal result lives on
// the stack up to 32 originating tuples, so below that the records are the
// only allocations. The clock is read only for a traversal observer.
func unfolder(cfg SUConfig) func(t core.Tuple, emit func(core.Tuple)) {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return func(t core.Tuple, emit func(core.Tuple)) {
		var sinkID uint64
		if m := core.MetaOf(t); m != nil {
			sinkID = m.ID()
		}
		var buf [32]core.Tuple
		var originating []core.Tuple
		if cfg.OnTraversal != nil {
			begin := now()
			originating = core.AppendProvenance(buf[:0], t)
			cfg.OnTraversal(now().Sub(begin), len(originating))
		} else {
			originating = core.AppendProvenance(buf[:0], t)
		}
		ts := t.Timestamp()
		for _, o := range originating {
			rec := &Record{Ts: ts, SinkID: sinkID, OrigTs: o.Timestamp(), Sink: t, Orig: o}
			if om := core.MetaOf(o); om != nil {
				rec.OrigID = om.ID()
				rec.OrigKind = om.Kind()
			}
			emit(rec)
		}
	}
}
