package provenance

import (
	"context"
	"fmt"
	"sort"

	"genealog/internal/core"
	"genealog/internal/ops"
	"genealog/internal/query"
)

// Result is the assembled provenance of one sink tuple.
type Result struct {
	// Sink is the sink tuple (as carried by the unfolded stream's records).
	Sink core.Tuple
	// Sources are the originating tuples, deduplicated, in first-seen order.
	Sources []core.Tuple
}

// Collector consumes an unfolded stream (SU output intra-process, MU output
// inter-process) and assembles one Result per sink tuple. Records of one
// sink tuple may interleave with records of other sink tuples (the MU's
// Join emits matches as both sides arrive), so the collector groups by sink
// key and flushes when the watermark passes the record's horizon, or at
// end-of-stream.
type Collector struct {
	// OnResult receives each assembled Result. It is invoked from the
	// collector's operator goroutine.
	OnResult func(Result)
	// Store, when non-nil, durably ingests each assembled Result (before
	// OnResult observes it) and receives the unfolded stream's watermark
	// progress for retention. AddCollector wires it from the builder's
	// query.WithProvenanceStore option.
	Store query.ProvenanceStore
	// Horizon is how far (in event time) past a sink tuple's timestamp the
	// collector waits for more of its records before flushing. Use the MU
	// window (plus any upstream delay) inter-process; 0 is safe
	// intra-process, where each sink tuple's records arrive contiguously
	// from the single SU.
	Horizon int64

	// groups indexes the pending groups by sink tuple; order holds them
	// first-seen. Unfolded streams are timestamp-sorted, so order is also
	// in non-decreasing sink-timestamp order and the groups whose horizon
	// has passed are always a prefix of it.
	groups tupleMap[*group]
	order  []*group
}

type group struct {
	sinkID  uint64
	sink    core.Tuple
	ts      int64
	seen    tupleMap[struct{}] // originating tuples already in sources
	sources []core.Tuple
}

// AddCollector adds a provenance sink node consuming the unfolded stream
// produced by from, and returns the collector for inspection after the run.
func AddCollector(b *query.Builder, name string, from *query.Node, onResult func(Result)) *Collector {
	return AddCollectorHorizon(b, name, from, 0, onResult)
}

// AddCollectorHorizon is AddCollector with an explicit flush horizon.
func AddCollectorHorizon(b *query.Builder, name string, from *query.Node, horizon int64, onResult func(Result)) *Collector {
	c := &Collector{OnResult: onResult, Store: b.ProvenanceStore(), Horizon: horizon}
	// The collector only reads what reaches it, so it is declared ReadOnly.
	node := b.AddCustom(name, 1, 0, func(ins, outs []*ops.Stream) (ops.Operator, error) {
		return newCollectorOp(name, ins[0], c), nil
	}).ReadOnly()
	b.Connect(from, node)
	return c
}

// Add ingests one record. A store ingestion failure (triggered by a flush)
// is returned so the collector's operator can fail the query.
func (c *Collector) Add(rec *Record) error {
	g, ok := c.groups.get(rec.SinkID, rec.Sink)
	if !ok {
		g = &group{sinkID: rec.SinkID, sink: rec.Sink, ts: rec.Timestamp()}
		c.groups.put(rec.SinkID, rec.Sink, g)
		c.order = append(c.order, g)
	}
	if _, dup := g.seen.get(rec.OrigID, rec.Orig); dup {
		return nil
	}
	g.seen.put(rec.OrigID, rec.Orig, struct{}{})
	g.sources = append(g.sources, rec.Orig)
	// Flush every group whose horizon the watermark has passed.
	return c.flushBefore(rec.Timestamp() - c.Horizon)
}

// flushBefore emits and removes the groups with sink timestamp < ts — a
// prefix of order, which is timestamp-sorted — in first-seen order. An emit
// failure is fatal to the query (the collector's operator propagates it);
// the failed group and every later one are kept only so the collector's
// state stays consistent — nothing re-emits them, and Store.Ingest is not
// idempotent, so this is not a retry contract.
func (c *Collector) flushBefore(ts int64) error {
	for len(c.order) > 0 && c.order[0].ts < ts {
		if err := c.flushOldest(); err != nil {
			return err
		}
	}
	return nil
}

// Flush emits every pending group (end-of-stream).
func (c *Collector) Flush() error {
	for len(c.order) > 0 {
		if err := c.flushOldest(); err != nil {
			return err
		}
	}
	return nil
}

// flushOldest emits the first pending group and, unless that fails, removes
// it.
func (c *Collector) flushOldest() error {
	g := c.order[0]
	if err := c.emit(g); err != nil {
		return err
	}
	c.groups.del(g.sinkID, g.sink)
	// Pop by advancing the slice: append drops the dead prefix when it next
	// grows.
	c.order[0] = nil
	c.order = c.order[1:]
	return nil
}

func (c *Collector) emit(g *group) error {
	if c.Store != nil {
		if _, err := c.Store.Ingest(g.sink, g.sources); err != nil {
			return err
		}
	}
	if c.OnResult != nil {
		c.OnResult(Result{Sink: g.sink, Sources: g.sources})
	}
	return nil
}

// collectorOp adapts a Collector to the Operator interface: a sink consuming
// an unfolded stream of *Record tuples.
type collectorOp struct {
	name string
	in   *ops.Stream
	c    *Collector
}

func newCollectorOp(name string, in *ops.Stream, c *Collector) *collectorOp {
	return &collectorOp{name: name, in: in, c: c}
}

var _ ops.Operator = (*collectorOp)(nil)

// Name implements ops.Operator.
func (o *collectorOp) Name() string { return o.name }

// Run implements ops.Operator.
func (o *collectorOp) Run(ctx context.Context) error {
	for {
		t, ok, err := o.in.Recv(ctx)
		if err != nil {
			return fmt.Errorf("provenance collector %q: %w", o.name, err)
		}
		if !ok {
			if err := o.c.Flush(); err != nil {
				return fmt.Errorf("provenance collector %q: %w", o.name, err)
			}
			return nil
		}
		if core.IsHeartbeat(t) {
			// Watermark progress: flush every group whose horizon passed,
			// then let the store retire what can no longer be referenced.
			// The store's watermark trails by the flush horizon — groups
			// within it are still pending here.
			if err := o.c.flushBefore(t.Timestamp() - o.c.Horizon); err != nil {
				return fmt.Errorf("provenance collector %q: %w", o.name, err)
			}
			if o.c.Store != nil {
				o.c.Store.Advance(t.Timestamp() - o.c.Horizon)
			}
			continue
		}
		rec, isRec := t.(*Record)
		if !isRec {
			return fmt.Errorf("provenance collector %q: unexpected tuple type %T on unfolded stream", o.name, t)
		}
		if err := o.c.Add(rec); err != nil {
			return fmt.Errorf("provenance collector %q: %w", o.name, err)
		}
	}
}

// SortSourcesByTs orders a Result's sources by (event time, ID) — handy for
// stable assertions and reports.
func SortSourcesByTs(r *Result) {
	sort.SliceStable(r.Sources, func(i, j int) bool {
		a, b := r.Sources[i], r.Sources[j]
		if a.Timestamp() != b.Timestamp() {
			return a.Timestamp() < b.Timestamp()
		}
		am, bm := core.MetaOf(a), core.MetaOf(b)
		if am != nil && bm != nil {
			return am.ID() < bm.ID()
		}
		return false
	})
}

// String renders a result compactly for logs and examples.
func (r Result) String() string {
	return fmt.Sprintf("sink@%d <- %d source tuple(s)", r.Sink.Timestamp(), len(r.Sources))
}
