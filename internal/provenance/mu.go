package provenance

import (
	"encoding/binary"

	"genealog/internal/core"
	"genealog/internal/ops"
	"genealog/internal/query"
)

// MUConfig configures a multi-stream unfolder.
type MUConfig struct {
	// Window is the MU Join's window size: the sum of the window sizes of
	// the stateful operators deployed at the SPE instance producing the
	// derived stream (paper §6.1). It bounds how long upstream records are
	// retained before they can no longer match.
	Window int64
}

// AddMU adds a multi-stream unfolder (paper §6, Def. 6.4) assembled from the
// standard operators exactly as in Fig. 8:
//
//	upstreams ──► Union ─────────────────────────┐
//	derived ──► Multiplex ─► Filter(¬SOURCE) ──► Join ─► Union ─► out
//	                 └─────► Filter(SOURCE) ────────────►│
//
// Each derived-stream record whose originating tuple is of type SOURCE is
// forwarded unchanged; every other record is replaced by the upstream
// records whose SinkID matches its OrigID, substituting the true
// originating tuples for the REMOTE placeholder (Def. 6.4).
//
// The Join is a pure equi-join of OrigID against SinkID, declared keyed and
// columnar: the planner runs it as the hash-probed ops.ColJoin, so a record
// costs a probe of its own ID's candidates, not a scan of the window. Under
// query.WithVectorize(false) the same ColJoin probes the same candidates and
// checks them with the row predicate, producing the same stream.
//
// derived and upstreams must produce *Record tuples (unfolded streams).
// AddMU returns the node producing the MU's output stream.
func AddMU(b *query.Builder, name string, derived *query.Node, upstreams []*query.Node, cfg MUConfig) *query.Node {
	// Upstream side: a Union merges multiple upstream unfolded streams
	// deterministically (the Union is pass-through for a single upstream).
	up := b.AddUnion(name + ".up")
	for _, u := range upstreams {
		b.Connect(u, up)
	}

	// Derived side: split SOURCE records from records needing resolution.
	mux := b.AddMultiplex(name + ".mux")
	b.Connect(derived, mux)
	needJoin := b.AddFilter(name+".remote", func(t core.Tuple) bool {
		return t.(*Record).OrigKind != core.KindSource
	})
	passThrough := b.AddFilter(name+".local", func(t core.Tuple) bool {
		return t.(*Record).OrigKind == core.KindSource
	})
	b.Connect(mux, needJoin)
	b.Connect(mux, passThrough)

	join := b.AddJoin(name+".join", ops.JoinSpec{
		WS: cfg.Window,
		Predicate: func(l, r core.Tuple) bool {
			return l.(*Record).OrigID == r.(*Record).SinkID
		},
		LeftKey:  func(t core.Tuple) string { return idKey(t.(*Record).OrigID) },
		RightKey: func(t core.Tuple) string { return idKey(t.(*Record).SinkID) },
		// The match takes the later of the two records' event times, the
		// time ColJoin gives a result that carries meta-attributes.
		Combine: func(l, r core.Tuple) core.Tuple {
			d, u := l.(*Record), r.(*Record)
			return &Record{
				Ts:       max(d.Ts, u.Ts),
				SinkID:   d.SinkID,
				Sink:     d.Sink,
				OrigID:   u.OrigID,
				OrigTs:   u.OrigTs,
				OrigKind: u.OrigKind,
				Orig:     u.Orig,
			}
		},
	}).ColumnarJoin(query.JoinColSpec{})
	b.ConnectPort(needJoin, join, query.PortLeft)
	b.ConnectPort(up, join, query.PortRight)

	out := b.AddUnion(name + ".out")
	b.Connect(join, out)
	b.Connect(passThrough, out)
	return out
}

// idKey renders a tuple ID as a join key: its eight bytes, big-endian, so
// keys order like the IDs they stand for.
func idKey(id uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return string(b[:])
}
