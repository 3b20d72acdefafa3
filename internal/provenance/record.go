// Package provenance implements GeneaLog's provenance operators: the
// single-stream unfolder SU (paper §5) and the multi-stream unfolder MU
// (paper §6), both composed from the standard operators of internal/ops —
// establishing the paper's challenge C3 — plus the unfolded-stream record
// type and a provenance sink that assembles per-sink-tuple provenance sets.
package provenance

import (
	"genealog/internal/core"
)

// Record is one tuple of an unfolded (delivering) stream (paper Defs. 5.1
// and 6.2): a delivering tuple paired with one of its originating tuples.
// The record's own event time is the delivering tuple's, keeping unfolded
// streams timestamp-sorted.
//
// A Record is plain data: ⟨ts, sink, origin⟩ plus the IDs the MU matches
// on, and no meta-attributes. It is neither core.Traceable nor
// core.Cloneable, so core.MetaOf returns nil for it and every GeneaLog hook
// on the operators carrying unfolded streams (the SU's unfold Map, the MU's
// Join, Send and Receive) returns at once: nothing ever traverses a
// record's own contribution graph, so none is built, and no ID is drawn
// for it. A cloning Multiplex forwards it unchanged.
//
// SinkID and OrigID carry the ID meta-attributes used by the inter-process
// algorithm (t'.IDO in Def. 6.2 is OrigID; the MU matches it against
// upstream records' SinkID). They are zero in intra-process deployments,
// where the Sink and Orig references suffice.
type Record struct {
	// Ts is the record's event time: the delivering tuple's, or, for an MU
	// match, the later of the derived and the upstream record's.
	Ts int64
	// SinkID is the delivering tuple's unique ID (0 intra-process).
	SinkID uint64
	// OrigID is the originating tuple's unique ID (t'.IDO; 0 intra-process).
	OrigID uint64
	// OrigTs is the originating tuple's event time (t'.tsO).
	OrigTs int64
	// OrigKind is the originating tuple's Type meta-attribute: SOURCE, or
	// REMOTE when the originating tuple was produced by another SPE
	// instance and still needs MU resolution.
	OrigKind core.Kind
	// Sink is the delivering tuple.
	Sink core.Tuple
	// Orig is the originating tuple. A REMOTE origin does not cross the
	// binary wire (the MU replaces it), so it is nil on a decoded record.
	Orig core.Tuple
}

// Timestamp implements core.Tuple.
func (r *Record) Timestamp() int64 { return r.Ts }

// tupleMap maps tuples to values, identifying a tuple by its ID when the
// inter-process algorithm assigned one and by reference otherwise. The two
// cases keep separate, natively keyed maps, so neither boxes its key.
type tupleMap[V any] struct {
	byID  map[uint64]V
	byRef map[core.Tuple]V
}

func (m *tupleMap[V]) get(id uint64, t core.Tuple) (V, bool) {
	if id != 0 {
		v, ok := m.byID[id]
		return v, ok
	}
	v, ok := m.byRef[t]
	return v, ok
}

func (m *tupleMap[V]) put(id uint64, t core.Tuple, v V) {
	switch {
	case id != 0 && m.byID == nil:
		m.byID = map[uint64]V{id: v}
	case id != 0:
		m.byID[id] = v
	case m.byRef == nil:
		m.byRef = map[core.Tuple]V{t: v}
	default:
		m.byRef[t] = v
	}
}

func (m *tupleMap[V]) del(id uint64, t core.Tuple) {
	if id != 0 {
		delete(m.byID, id)
	} else {
		delete(m.byRef, t)
	}
}
