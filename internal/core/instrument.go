package core

import (
	"fmt"
	"sync/atomic"
)

// Instrumenter is the strategy the stream operators delegate provenance side
// effects to. One operator implementation serves the paper's three
// evaluation modes:
//
//   - NP (no provenance): Noop, every hook is empty;
//   - GL (GeneaLog): Genealog, hooks set the fixed-size meta-attributes of §4.1;
//   - BL (Ariadne-style baseline): internal/baseline, hooks maintain
//     variable-length annotation lists and a source store.
//
// Hooks are invoked by the operator goroutine that creates (or buffers) the
// tuple, before the tuple is sent downstream, so implementations need no
// internal synchronisation for per-tuple state. The one write after creation
// (GL's N, by the Aggregate buffering the tuple) stays single-writer because
// the query planner clones at a Multiplex whenever two branches could write
// the same object (see NeedsMultiplexClone).
type Instrumenter interface {
	// OnSource is invoked for every tuple created by a Source.
	OnSource(t Tuple)
	// OnMap is invoked for each output tuple of a Map and links it to the
	// input tuple it was derived from. It never receives out == in: a Map
	// that forwards its input (an identity kernel, or a closure emitting
	// what it received) created nothing, and the operators skip the hook.
	OnMap(out, in Tuple)
	// OnMultiplex links one fresh per-branch copy to the multiplexed input.
	OnMultiplex(out, in Tuple)
	// OnJoin links a join result to its two contributors; newer is the one
	// with the more recent timestamp.
	OnJoin(out, newer, older Tuple)
	// OnAggregateLink is invoked when cur is appended right after prev in an
	// aggregate group buffer; it is where GL chains the N meta-attribute.
	OnAggregateLink(prev, cur Tuple)
	// OnAggregateEmit links a window result to the window's contents
	// (timestamp-ordered, oldest first).
	OnAggregateEmit(out Tuple, window []Tuple)
	// OnSend is invoked just before a tuple is serialised by a Send operator.
	OnSend(t Tuple)
	// OnReceive is invoked for every tuple a Receive operator reconstructs
	// from the wire.
	OnReceive(t Tuple)
	// NeedsMultiplexClone is the question the query planner asks of every
	// Multiplex: must its branches receive per-branch copies when writers
	// paths lead from it, through operators that forward objects, to an
	// operator that may write per-tuple state of the forwarded object (an
	// Aggregate's N, a Custom operator's unknown writes)? When false, the
	// Multiplex forwards the same tuple object to every branch.
	NeedsMultiplexClone(writers int) bool
}

// Noop is the NP instrumenter: provenance capture disabled.
type Noop struct{}

var _ Instrumenter = Noop{}

// OnSource implements Instrumenter.
func (Noop) OnSource(Tuple) {}

// OnMap implements Instrumenter.
func (Noop) OnMap(_, _ Tuple) {}

// OnMultiplex implements Instrumenter.
func (Noop) OnMultiplex(_, _ Tuple) {}

// OnJoin implements Instrumenter.
func (Noop) OnJoin(_, _, _ Tuple) {}

// OnAggregateLink implements Instrumenter.
func (Noop) OnAggregateLink(_, _ Tuple) {}

// OnAggregateEmit implements Instrumenter.
func (Noop) OnAggregateEmit(_ Tuple, _ []Tuple) {}

// OnSend implements Instrumenter.
func (Noop) OnSend(Tuple) {}

// OnReceive implements Instrumenter.
func (Noop) OnReceive(Tuple) {}

// NeedsMultiplexClone implements Instrumenter: NP state is never written, so
// every branch shares the object.
func (Noop) NeedsMultiplexClone(int) bool { return false }

// Genealog is the GL instrumenter. It sets the Type/U1/U2/N meta-attributes
// exactly as §4.1 prescribes and, when an IDGen is configured (inter-process
// deployments, §6), assigns unique IDs to source tuples and tuples crossing
// process boundaries.
type Genealog struct {
	// IDs, when non-nil, assigns the ID meta-attribute to source tuples and
	// to tuples serialised by Send. Intra-process deployments leave it nil.
	IDs *IDGen
}

var _ Instrumenter = (*Genealog)(nil)

// OnSource implements Instrumenter: T := SOURCE; no pointers are set.
func (g *Genealog) OnSource(t Tuple) {
	m := MetaOf(t)
	if m == nil {
		return
	}
	m.SetKind(KindSource)
	if g.IDs != nil {
		m.SetID(g.IDs.Next())
	}
}

// OnMap implements Instrumenter: T := MAP, U1 := in. Operators never report
// a self-map; a direct caller's out == in is still a no-op, because linking
// the tuple to itself would cut it off from its sources.
func (g *Genealog) OnMap(out, in Tuple) {
	m := MetaOf(out)
	if m == nil || m == MetaOf(in) {
		return
	}
	m.SetKind(KindMap)
	m.SetU1(in)
	if g.IDs != nil {
		m.SetID(g.IDs.Next())
	}
}

// OnMultiplex implements Instrumenter: T := MULTIPLEX, U1 := in. The copy
// inherits the input's ID: the single-stream unfolder reads the ID off the
// branch it unfolds, and it must match the ID the Send serialises on the
// sibling branch.
func (g *Genealog) OnMultiplex(out, in Tuple) {
	m := MetaOf(out)
	if m == nil {
		return
	}
	m.SetKind(KindMultiplex)
	m.SetU1(in)
	if im := MetaOf(in); im != nil {
		m.SetID(im.ID())
	}
}

// OnJoin implements Instrumenter: T := JOIN, U1 := newer, U2 := older.
func (g *Genealog) OnJoin(out, newer, older Tuple) {
	m := MetaOf(out)
	if m == nil {
		return
	}
	m.SetKind(KindJoin)
	m.SetU1(newer)
	m.SetU2(older)
	if g.IDs != nil {
		m.SetID(g.IDs.Next())
	}
}

// OnAggregateLink implements Instrumenter: prev.N := cur, written exactly
// once per tuple (the guard keeps the write idempotent when a tuple is
// re-linked by overlapping windows). Under SetStrict, an N that already
// holds a different object panics: two Aggregates buffer the object, which
// the planner's clone decision exists to prevent.
func (g *Genealog) OnAggregateLink(prev, cur Tuple) {
	if prev == nil {
		return
	}
	m := MetaOf(prev)
	if m == nil {
		return
	}
	if n := m.Next(); n != nil {
		if n != cur && strict.Load() {
			panic(fmt.Sprintf("core: strict: %T already links N to a %T, second writer links it to a %T", prev, n, cur))
		}
		return
	}
	m.SetNext(cur)
}

// OnAggregateEmit implements Instrumenter: T := AGGREGATE, U1 := latest
// window tuple, U2 := earliest window tuple.
func (g *Genealog) OnAggregateEmit(out Tuple, window []Tuple) {
	m := MetaOf(out)
	if m == nil || len(window) == 0 {
		return
	}
	m.SetKind(KindAggregate)
	m.SetU2(window[0])
	m.SetU1(window[len(window)-1])
	if g.IDs != nil {
		m.SetID(g.IDs.Next())
	}
}

// OnSend implements Instrumenter. Following §4.1, tuples that are not of
// type SOURCE become REMOTE on the receiving side; the sender only has to
// guarantee the tuple carries an ID so the multi-stream unfolder can match
// it across the serialisation boundary. It writes only a zero ID: every
// instrumented creator already draws one inter-process, so a Send sharing
// its input object with a sibling branch reads it and never writes it.
// Under SetStrict, a zero ID panics instead of being assigned.
func (g *Genealog) OnSend(t Tuple) {
	m := MetaOf(t)
	if m == nil {
		return
	}
	if m.ID() == 0 && g.IDs != nil {
		if strict.Load() {
			panic(fmt.Sprintf("core: strict: a %T reached Send without an ID", t))
		}
		m.SetID(g.IDs.Next())
	}
}

// strict turns GL's single-writer checks on (see SetStrict).
var strict atomic.Bool

// SetStrict turns GL's single-writer checks on or off and returns the
// previous setting. It exists for tests: with it on, Genealog panics where
// a planner mistake would otherwise go unnoticed — an OnAggregateLink that
// finds N already holding a different object (two Aggregates buffer one
// object, and the second silently loses its chain), and an OnSend that
// would have to assign an ID (a write to an object the Send may share).
func SetStrict(on bool) bool { return strict.Swap(on) }

// OnReceive implements Instrumenter: a reconstructed tuple keeps kind SOURCE
// if it was a source tuple, and becomes REMOTE otherwise (§4.1, Send).
func (g *Genealog) OnReceive(t Tuple) {
	m := MetaOf(t)
	if m == nil {
		return
	}
	if m.Kind() != KindSource {
		m.SetKind(KindRemote)
	}
	m.SetU1(nil)
	m.SetU2(nil)
	m.SetNext(nil)
}

// NeedsMultiplexClone implements Instrumenter: N is the only meta-attribute
// written after a tuple is created, by the single Aggregate buffering it
// (§4.1). Branches may share one object unless two of them could write its
// N chain.
func (g *Genealog) NeedsMultiplexClone(writers int) bool { return writers > 1 }

// IDGen produces process-unique tuple IDs. Following the paper's footnote 2,
// an ID is the generating node's identifier in the high bits combined with a
// sequential counter in the low bits, so IDs from different SPE instances
// never collide.
type IDGen struct {
	node uint64
	ctr  atomic.Uint64
}

// nodeBits is the number of high bits reserved for the node identifier.
const nodeBits = 16

// NewIDGen returns an ID generator for the given SPE instance number
// (1-based; instance numbers must fit in 16 bits).
func NewIDGen(node uint16) *IDGen {
	return &IDGen{node: uint64(node) << (64 - nodeBits)}
}

// Next returns the next unique ID. It never returns zero.
func (g *IDGen) Next() uint64 {
	return g.node | g.ctr.Add(1)
}
