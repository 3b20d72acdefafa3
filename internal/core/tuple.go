// Package core implements GeneaLog's fine-grained data-provenance model:
// the fixed-size per-tuple meta-attributes (Type, U1, U2, N and, for
// inter-process deployments, ID), the contribution-graph traversal of the
// paper's Listing 1, and the operator instrumentation strategies (NP, GL)
// that the stream-processing operators in internal/ops delegate to.
//
// The central idea (paper §4) is that every tuple carries exactly four
// provenance meta-attributes. U1, U2 and N are in-process references to
// other tuples; a sink tuple therefore transitively pins the source tuples
// that contribute to it, and the Go garbage collector reclaims a source
// tuple as soon as no in-flight tuple's contribution graph references it
// (challenge C2 of the paper).
//
// The per-tuple cost is fixed (challenge C1): Meta is T, the ID, the event
// time and stimulus, and the three links, 80 bytes on a 64-bit platform,
// whatever the mode. The BL baseline's variable-length annotation list has
// no field of its own; it rides in the N slot, which BL never uses.
package core

// Kind identifies the operator that created a tuple. It is the paper's
// "Type" meta-attribute. Operators that forward, rather than create, tuples
// (Filter, Union) never change a tuple's Kind.
type Kind uint8

// Tuple kinds, paper §4. KindNone is the unset zero value: a tuple that has
// not passed through an instrumented creator yet.
const (
	KindNone Kind = iota
	KindSource
	KindRemote
	KindMap
	KindMultiplex
	KindJoin
	KindAggregate
)

// String returns the paper's name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "NONE"
	case KindSource:
		return "SOURCE"
	case KindRemote:
		return "REMOTE"
	case KindMap:
		return "MAP"
	case KindMultiplex:
		return "MULTIPLEX"
	case KindJoin:
		return "JOIN"
	case KindAggregate:
		return "AGGREGATE"
	default:
		return "INVALID"
	}
}

// Tuple is the minimal contract for data items flowing through a query.
//
// Timestamp returns the tuple's event time (attribute "ts" in the paper).
// The unit is application defined (seconds for Linear Road, hours for the
// smart-grid queries); queries only compare and subtract timestamps.
type Tuple interface {
	Timestamp() int64
}

// Traceable is implemented by tuples that carry GeneaLog meta-attributes.
// Application tuple structs obtain it by embedding Meta.
type Traceable interface {
	Tuple
	ProvMeta() *Meta
}

// Cloneable is implemented by tuples that the Multiplex operator can copy.
// CloneTuple must return a new tuple with the same payload, event time and
// stimulus, but a fresh (zero) set of provenance meta-attributes; the
// instrumenter decides how the copy is linked to the original.
type Cloneable interface {
	Tuple
	CloneTuple() Tuple
}

// Meta holds GeneaLog's fixed-size per-tuple metadata. Application tuples
// embed it:
//
//	type PositionReport struct {
//		core.Meta
//		CarID int32
//		Speed int32
//		Pos   int32
//	}
//
// The embedded Meta provides Timestamp, ProvMeta and the stimulus plumbing,
// so the struct satisfies core.Traceable.
//
// Layout: ts, stim, id, kind, u1, u2, next — 80 bytes on a 64-bit platform,
// the same under NP, GL and BL. The next slot holds GL's N, or, under BL,
// the tuple's annotation list boxed in an unexported type: BL never links N
// (its OnAggregateLink is a no-op) and GL never annotates, so the two never
// meet on one tuple. Next hides the box, and Annotation reads only the box.
//
// Concurrency: u1 and u2 are written exactly once, by the operator that
// creates the tuple, before the tuple is sent downstream. Under GL, next is
// written at most once, by the single Aggregate that buffers the tuple, and
// every window emission that can observe the write happens after it (the
// write precedes the channel send of the emitted window result). A
// Multiplex may hand the same object to several branches; next still has a
// single writer per object because the query planner clones at every
// Multiplex where two branches could reach an Aggregate (or an operator of
// unknown writes) with the same object. Under BL, next is written only by
// the operator creating the tuple (its annotation), and BL clones at every
// Multiplex. Traversal therefore needs no synchronisation.
type Meta struct {
	ts   int64
	stim int64
	id   uint64
	kind Kind
	u1   Tuple
	u2   Tuple
	next Tuple // GL's N, or BL's annotation list as an annotation box
}

// annotation boxes the BL baseline's source-ID list so it fits Meta's N
// slot. It satisfies Tuple only to fit the slot: Next never returns it.
type annotation []uint64

// Timestamp implements Tuple; an annotation has no event time.
func (annotation) Timestamp() int64 { return 0 }

// NewMeta returns a Meta carrying the given event time.
func NewMeta(ts int64) Meta { return Meta{ts: ts} }

// ProvMeta returns the metadata itself; it makes any struct embedding Meta
// satisfy Traceable.
func (m *Meta) ProvMeta() *Meta { return m }

// Timestamp returns the tuple's event time.
func (m *Meta) Timestamp() int64 { return m.ts }

// SetTimestamp sets the tuple's event time. It must only be called by the
// operator creating the tuple, before the tuple is sent downstream.
func (m *Meta) SetTimestamp(ts int64) { m.ts = ts }

// Stimulus returns the wall-clock instant (nanoseconds) at which the most
// recent source tuple contributing to this tuple entered the system. Sink
// latency is measured as emission time minus stimulus, which is exactly the
// paper's latency definition (§7).
func (m *Meta) Stimulus() int64 { return m.stim }

// SetStimulus records the wall-clock arrival instant.
func (m *Meta) SetStimulus(ns int64) { m.stim = ns }

// MergeStimulus raises the stimulus to ns if ns is more recent.
func (m *Meta) MergeStimulus(ns int64) {
	if ns > m.stim {
		m.stim = ns
	}
}

// Kind returns the paper's Type meta-attribute.
func (m *Meta) Kind() Kind { return m.kind }

// SetKind sets the Type meta-attribute.
func (m *Meta) SetKind(k Kind) { m.kind = k }

// U1 returns the first upstream reference (most recent contributor for
// Join/Aggregate, the single contributor for Map/Multiplex).
func (m *Meta) U1() Tuple { return m.u1 }

// U2 returns the second upstream reference (oldest contributor for
// Join/Aggregate; nil otherwise).
func (m *Meta) U2() Tuple { return m.u2 }

// Next returns the N meta-attribute: the successor of this tuple inside its
// aggregate group, used to walk a window's contents from U2 to U1. It is nil
// on a tuple whose N slot holds a BL annotation list.
func (m *Meta) Next() Tuple {
	if _, ok := m.next.(annotation); ok {
		return nil
	}
	return m.next
}

// SetU1 sets the U1 reference.
func (m *Meta) SetU1(t Tuple) { m.u1 = t }

// SetU2 sets the U2 reference.
func (m *Meta) SetU2(t Tuple) { m.u2 = t }

// SetNext sets the N reference. It must be written at most once per tuple,
// before any downstream observer can reach the tuple through a window
// emission (see the concurrency note on Meta). It replaces an annotation
// list, which shares the slot.
func (m *Meta) SetNext(t Tuple) { m.next = t }

// ID returns the tuple's unique identifier, used by the inter-process
// algorithm (§6) to rebuild cross-process links after serialisation.
// Zero means unassigned.
func (m *Meta) ID() uint64 { return m.id }

// SetID assigns the tuple's unique identifier.
func (m *Meta) SetID(id uint64) { m.id = id }

// Annotation returns the baseline's variable-length list of contributing
// source-tuple IDs. It is nil under NP and GL; its unbounded growth is the
// pathology GeneaLog eliminates (challenge C1).
func (m *Meta) Annotation() []uint64 {
	a, _ := m.next.(annotation)
	return a
}

// SetAnnotation replaces the baseline annotation list. The list lives in
// the N slot, so a non-nil list replaces an N reference; a nil list clears
// a list but leaves an N reference alone.
func (m *Meta) SetAnnotation(ids []uint64) {
	if ids != nil {
		m.next = annotation(ids)
	} else if _, ok := m.next.(annotation); ok {
		m.next = nil
	}
}

// ResetProvenance clears every provenance meta-attribute, the annotation
// list included (but keeps event time and stimulus). CloneTuple
// implementations call it on copies.
func (m *Meta) ResetProvenance() {
	m.id = 0
	m.kind = KindNone
	m.u1, m.u2, m.next = nil, nil, nil
}

// MetaOf returns the provenance metadata of t, or nil if t does not carry
// any (i.e. does not embed Base).
func MetaOf(t Tuple) *Meta {
	if tr, ok := t.(Traceable); ok {
		return tr.ProvMeta()
	}
	return nil
}

// Base is what application tuple structs embed to become Traceable:
//
//	type PositionReport struct {
//		core.Base
//		CarID int32
//	}
//
// It holds Meta as a named field rather than embedding it, on purpose: Meta
// implements GobEncoder/GobDecoder (dropping the process-local pointers on
// the wire), and embedding it directly would promote those methods to the
// application struct, silently discarding the payload during serialisation.
// Base forwards the Meta API instead, promoting convenience methods but no
// marshalling interfaces.
type Base struct {
	M Meta
}

// NewBase returns a Base carrying the given event time.
func NewBase(ts int64) Base { return Base{M: NewMeta(ts)} }

var _ Traceable = (*Base)(nil)

// ProvMeta implements Traceable.
func (b *Base) ProvMeta() *Meta { return &b.M }

// Timestamp implements Tuple.
func (b *Base) Timestamp() int64 { return b.M.Timestamp() }

// SetTimestamp forwards to Meta.
func (b *Base) SetTimestamp(ts int64) { b.M.SetTimestamp(ts) }

// Stimulus forwards to Meta.
func (b *Base) Stimulus() int64 { return b.M.Stimulus() }

// SetStimulus forwards to Meta.
func (b *Base) SetStimulus(ns int64) { b.M.SetStimulus(ns) }

// MergeStimulus forwards to Meta.
func (b *Base) MergeStimulus(ns int64) { b.M.MergeStimulus(ns) }

// Kind forwards to Meta.
func (b *Base) Kind() Kind { return b.M.Kind() }

// SetKind forwards to Meta.
func (b *Base) SetKind(k Kind) { b.M.SetKind(k) }

// U1 forwards to Meta.
func (b *Base) U1() Tuple { return b.M.U1() }

// U2 forwards to Meta.
func (b *Base) U2() Tuple { return b.M.U2() }

// Next forwards to Meta.
func (b *Base) Next() Tuple { return b.M.Next() }

// SetU1 forwards to Meta.
func (b *Base) SetU1(t Tuple) { b.M.SetU1(t) }

// SetU2 forwards to Meta.
func (b *Base) SetU2(t Tuple) { b.M.SetU2(t) }

// SetNext forwards to Meta.
func (b *Base) SetNext(t Tuple) { b.M.SetNext(t) }

// ID forwards to Meta.
func (b *Base) ID() uint64 { return b.M.ID() }

// SetID forwards to Meta.
func (b *Base) SetID(id uint64) { b.M.SetID(id) }

// Annotation forwards to Meta.
func (b *Base) Annotation() []uint64 { return b.M.Annotation() }

// SetAnnotation forwards to Meta.
func (b *Base) SetAnnotation(ids []uint64) { b.M.SetAnnotation(ids) }

// ResetProvenance forwards to Meta.
func (b *Base) ResetProvenance() { b.M.ResetProvenance() }
