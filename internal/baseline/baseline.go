// Package baseline implements the paper's comparison technique BL: an
// Ariadne-style eager provenance capture (Glavic et al., ACM TOIT 2014)
// re-implemented on the same operator substrate, exactly as the paper
// re-implemented it on Liebre (§7).
//
// BL annotates every tuple with the variable-length list of the IDs of the
// source tuples contributing to it, and temporarily stores *all* source
// tuples so annotated sink tuples can later be joined back to them. Those
// two properties are the pathologies GeneaLog removes: annotation lists grow
// with window sizes and query depth (violating C1), and the source store
// grows with the stream (violating C2) — which is why BL's throughput
// collapses and its memory becomes the bottleneck in Figs. 12 and 13.
//
// The annotation list has no field of its own in core.Meta: it rides in the
// N slot, which BL never links (OnAggregateLink is a no-op), so NP and GL
// tuples do not pay for it. Meta.Annotation and Meta.SetAnnotation are its
// only accessors; Meta.Next never returns it.
package baseline

import (
	"sync"

	"genealog/internal/core"
)

// Sized is implemented by tuples that can report their approximate in-memory
// payload size; the store uses it for its byte accounting.
type Sized interface {
	ApproxBytes() int
}

// defaultTupleBytes is the store's size estimate for tuples that do not
// implement Sized.
const defaultTupleBytes = 64

// Store temporarily keeps every source tuple, keyed by ID, until the
// provenance of the sink tuples that might reference it has been resolved.
// BL cannot know in advance which source tuples will contribute to a future
// sink tuple, so nothing can be evicted during a run — the unbounded growth
// the paper measures.
type Store struct {
	mu    sync.Mutex
	m     map[uint64]core.Tuple
	bytes int64
}

// NewStore returns an empty source store.
func NewStore() *Store {
	return &Store{m: make(map[uint64]core.Tuple)}
}

// Put stores a source tuple under its ID.
func (s *Store) Put(id uint64, t core.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[id]; dup {
		return
	}
	s.m[id] = t
	s.bytes += int64(approxBytes(t))
}

// Get returns the stored source tuple with the given ID.
func (s *Store) Get(id uint64) (core.Tuple, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.m[id]
	return t, ok
}

// Len returns the number of stored source tuples.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// ApproxBytes returns the approximate payload bytes held by the store — the
// deterministic "live provenance state" metric the harness reports next to
// the heap figures.
func (s *Store) ApproxBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

func approxBytes(t core.Tuple) int {
	if s, ok := t.(Sized); ok {
		return s.ApproxBytes()
	}
	return defaultTupleBytes
}

// Instrumenter is the BL strategy: variable-length source-ID annotations on
// every tuple plus eager copies of all source tuples into Store.
type Instrumenter struct {
	// IDs generates the source tuple IDs.
	IDs *core.IDGen
	// Store, when non-nil, receives a copy of every source tuple. In
	// distributed deployments it is nil at the source instances — there the
	// whole source stream is shipped to the provenance node instead, which
	// is precisely BL's network pathology (§7, inter-process results).
	Store *Store
}

var _ core.Instrumenter = (*Instrumenter)(nil)

// OnSource implements core.Instrumenter: assign an ID, start the annotation
// list with it, and retain the tuple.
func (b *Instrumenter) OnSource(t core.Tuple) {
	m := core.MetaOf(t)
	if m == nil {
		return
	}
	m.SetKind(core.KindSource)
	id := b.IDs.Next()
	m.SetID(id)
	m.SetAnnotation([]uint64{id})
	if b.Store != nil {
		b.Store.Put(id, t)
	}
}

// OnMap implements core.Instrumenter: the output inherits a copy of the
// input's annotation.
func (b *Instrumenter) OnMap(out, in core.Tuple) {
	copyAnnotation(out, in)
}

// OnMultiplex implements core.Instrumenter: every branch copy inherits the
// input's annotation and ID (the copy is the same logical tuple; in the
// distributed deployment the copy shipped to the provenance node must be
// stored under the ID the annotations reference).
func (b *Instrumenter) OnMultiplex(out, in core.Tuple) {
	copyAnnotation(out, in)
	om, im := core.MetaOf(out), core.MetaOf(in)
	if om != nil && im != nil {
		om.SetID(im.ID())
		om.SetKind(im.Kind())
	}
}

// OnJoin implements core.Instrumenter: the output's annotation is the merged
// annotation of the pair.
func (b *Instrumenter) OnJoin(out, newer, older core.Tuple) {
	om := core.MetaOf(out)
	if om == nil {
		return
	}
	om.SetAnnotation(mergeAnnotations(annotationOf(newer), annotationOf(older)))
}

// OnAggregateLink implements core.Instrumenter: BL has no N chain.
func (b *Instrumenter) OnAggregateLink(_, _ core.Tuple) {}

// OnAggregateEmit implements core.Instrumenter: the window output carries
// the union of every window tuple's annotation — the unbounded-growth case
// of annotation-based provenance (192 IDs per tuple in Q3).
func (b *Instrumenter) OnAggregateEmit(out core.Tuple, window []core.Tuple) {
	om := core.MetaOf(out)
	if om == nil {
		return
	}
	anns := make([][]uint64, 0, len(window))
	for _, w := range window {
		anns = append(anns, annotationOf(w))
	}
	om.SetAnnotation(mergeAnnotations(anns...))
}

// OnSend implements core.Instrumenter: annotations travel on the wire (they
// are part of the Meta wire encoding), so nothing to do.
func (b *Instrumenter) OnSend(core.Tuple) {}

// OnReceive implements core.Instrumenter: annotations arrived with the
// tuple; BL does not use the REMOTE mechanism.
func (b *Instrumenter) OnReceive(core.Tuple) {}

// NeedsMultiplexClone implements core.Instrumenter: branches carry their own
// annotation copies, whatever the downstream operators write — the textbook
// baseline clones at every Multiplex.
func (b *Instrumenter) NeedsMultiplexClone(int) bool { return true }

func annotationOf(t core.Tuple) []uint64 {
	if m := core.MetaOf(t); m != nil {
		return m.Annotation()
	}
	return nil
}

func copyAnnotation(out, in core.Tuple) {
	om := core.MetaOf(out)
	if om == nil {
		return
	}
	src := annotationOf(in)
	cp := make([]uint64, len(src))
	copy(cp, src)
	om.SetAnnotation(cp)
}

// mergeAnnotations unions ID lists, preserving first-seen order.
func mergeAnnotations(lists ...[]uint64) []uint64 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]uint64, 0, total)
	seen := make(map[uint64]struct{}, total)
	for _, l := range lists {
		for _, id := range l {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	return out
}

// Resolver maps an annotated sink tuple back to its source tuples by
// joining the annotation list with the source store.
type Resolver struct {
	Store *Store
}

var _ core.Resolver = Resolver{}

// Resolve implements core.Resolver. IDs missing from the store are skipped
// (in a distributed run this means the source copy has not been shipped,
// which the equivalence tests treat as a failure).
func (r Resolver) Resolve(sink core.Tuple) []core.Tuple {
	ann := annotationOf(sink)
	out := make([]core.Tuple, 0, len(ann))
	for _, id := range ann {
		if t, ok := r.Store.Get(id); ok {
			out = append(out, t)
		}
	}
	return out
}
