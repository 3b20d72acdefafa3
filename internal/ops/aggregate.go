package ops

import (
	"errors"

	"genealog/internal/core"
)

// OutputTsPolicy selects the event time stamped on an Aggregate's output
// tuples.
type OutputTsPolicy uint8

const (
	// WindowStartTs stamps outputs with the window's start (the paper's
	// Fig. 1 semantics; used by Q1-Q3).
	WindowStartTs OutputTsPolicy = iota + 1
	// WindowEndTs stamps outputs with the window's end; Q4's daily aggregate
	// uses it so the 1-hour Join window pairs the daily sum with the next
	// midnight reading.
	WindowEndTs
)

// AggregateFunc folds a window's contents (timestamp-ordered, oldest first)
// into one output tuple. start and end delimit the window [start, end); key
// is the group-by value (empty without group-by). The operator overwrites
// the returned tuple's timestamp according to the output policy and raises
// its stimulus to the window maximum; the function only fills the payload.
type AggregateFunc func(window []core.Tuple, start, end int64, key string) core.Tuple

// AggregateSpec configures an Aggregate operator.
type AggregateSpec struct {
	// WS and WA are the window size and advance in event-time units
	// (WA <= WS; WA == WS gives tumbling windows).
	WS, WA int64
	// Key extracts the group-by value; nil aggregates all tuples together.
	Key func(core.Tuple) string
	// Fold builds the output tuple of a closed window.
	Fold AggregateFunc
	// OutputTs selects the output timestamp policy; zero value defaults to
	// WindowStartTs.
	OutputTs OutputTsPolicy
	// Contributors, when non-nil, restricts a window output's provenance to
	// a subset of the window (returned in timestamp order) — the paper's
	// future-work item (i): e.g. a max-aggregation whose output depends on
	// a single window tuple need not pin the whole window. When nil, every
	// window tuple contributes (Definition 3.1 iii).
	//
	// Selective provenance intentionally changes what the contribution
	// graph reports: only the selected tuples are returned by traversal,
	// and only they are retained in memory for the output's lifetime.
	Contributors func(window []core.Tuple) []core.Tuple
}

func (s AggregateSpec) validate() error {
	if s.WS <= 0 || s.WA <= 0 {
		return errors.New("aggregate: WS and WA must be positive")
	}
	if s.WA > s.WS {
		return errors.New("aggregate: WA must not exceed WS")
	}
	if s.Fold == nil {
		return errors.New("aggregate: Fold is required")
	}
	return nil
}

// DeriveAggColSpec returns the columnar spec that runs spec's row closures
// on ColAggregate: an empty schema (the window state keeps rows, timestamps
// and metas only), a Key kernel that calls the row Key per selected tuple,
// and a Fold kernel that calls the row Fold on the segment's live row slice,
// which needs no copy. It is the spec of every Aggregate that declares no
// kernels, and of every Aggregate when vectorization is off.
func DeriveAggColSpec(spec AggregateSpec) AggColSpec {
	fold := spec.Fold
	col := AggColSpec{
		Schema: emptyColSchema,
		Fold: func(seg *ColSeg, start, end int64, key string) core.Tuple {
			return fold(seg.Rows(), start, end, key)
		},
	}
	if key := spec.Key; key != nil {
		col.Key = func(c *ColBatch, sel []int, dst []string) []string {
			for _, pos := range sel {
				dst = append(dst, key(c.Rows[pos]))
			}
			return dst
		}
	}
	return col
}

// instrumentAggEmit links a window output to its contributing tuples. With
// the default semantics every window tuple contributes and the group
// buffer's N chain is reused. With a Contributors selector, a fresh chain of
// linkTuple wrappers (one MAP-typed wrapper per selected tuple) is built
// instead, so traversal — and memory retention — covers exactly the selected
// subset even though the group chain runs through non-contributing tuples.
func instrumentAggEmit(instr core.Instrumenter, contributors func([]core.Tuple) []core.Tuple, out core.Tuple, win []core.Tuple) {
	if contributors == nil {
		instr.OnAggregateEmit(out, win)
		return
	}
	subset := contributors(win)
	if len(subset) == 0 {
		return
	}
	chain := make([]core.Tuple, len(subset))
	var prev core.Tuple
	for i, s := range subset {
		w := &linkTuple{Base: core.NewBase(s.Timestamp())}
		instr.OnMap(w, s)
		if prev != nil {
			instr.OnAggregateLink(prev, w)
		}
		chain[i] = w
		prev = w
	}
	instr.OnAggregateEmit(out, chain)
}

// linkTuple is a provenance-only wrapper used by selective aggregate
// provenance; it never flows through streams.
type linkTuple struct {
	core.Base
}
