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
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	mux := b.AddMultiplex(name + ".mux")
	unfold := b.AddMap(name+".unfold", func(t core.Tuple, emit func(core.Tuple)) {
		var sinkID uint64
		if m := core.MetaOf(t); m != nil {
			sinkID = m.ID()
		}
		begin := now()
		originating := core.FindProvenance(t)
		if cfg.OnTraversal != nil {
			cfg.OnTraversal(now().Sub(begin), len(originating))
		}
		for _, o := range originating {
			rec := &Record{
				Base:   core.NewBase(t.Timestamp()),
				SinkID: sinkID,
				OrigTs: o.Timestamp(),
				Sink:   t,
				Orig:   o,
			}
			if om := core.MetaOf(o); om != nil {
				rec.OrigID = om.ID()
				rec.OrigKind = om.Kind()
			}
			emit(rec)
		}
	})
	b.Connect(from, mux)
	b.Connect(mux, unfold)
	return mux, unfold
}
