// Package query assembles standard operators (internal/ops) into runnable
// continuous queries: a directed acyclic graph of operators connected by
// bounded, timestamp-sorted streams, executed with one goroutine per
// operator — the SPE-instance model of the paper's §2. Stateful nodes
// (Aggregate, Join) can additionally be shard-parallelised across their key
// space with Node.Parallel, which expands them into multiple operator
// instances at Build time while keeping the sink-observable output — and
// every tuple's contribution graph — identical to serial execution.
package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"genealog/internal/adapt"
	"genealog/internal/core"
	"genealog/internal/ops"
	"genealog/internal/telemetry"
)

// NodeKind identifies the operator type of a query node.
type NodeKind uint8

// Node kinds.
const (
	KindSource NodeKind = iota + 1
	KindSink
	KindMap
	KindFilter
	KindMultiplex
	KindUnion
	KindAggregate
	KindJoin
	KindCustom
)

func (k NodeKind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindSink:
		return "sink"
	case KindMap:
		return "map"
	case KindFilter:
		return "filter"
	case KindMultiplex:
		return "multiplex"
	case KindUnion:
		return "union"
	case KindAggregate:
		return "aggregate"
	case KindJoin:
		return "join"
	case KindCustom:
		return "custom"
	default:
		return "invalid"
	}
}

// Port names for operators with distinguished inputs.
const (
	PortDefault = ""
	// PortLeft and PortRight are the Join operator's two inputs.
	PortLeft  = "left"
	PortRight = "right"
)

// CustomFactory builds a user-defined operator once the builder has
// materialised its input and output streams (in connection order).
type CustomFactory func(ins, outs []*ops.Stream) (ops.Operator, error)

// ColSpec declares a stateless node's vectorized (columnar) execution
// capability: the column schema its kernels read, plus the kernel matching
// the node's kind — Filter for a Filter node, Map for a (strictly
// one-to-one) Map node. A node without a ColSpec (or with an incomplete one)
// simply keeps the row path; declaring one never changes the
// sink-observable output or any contribution graph, only how the planner
// executes the node (see WithVectorize). Stateful nodes declare an
// AggColSpec or JoinColSpec instead.
type ColSpec struct {
	// Schema declares the typed columns the kernels read.
	Schema *ops.ColSchema
	// Filter is the vectorized predicate of a Filter node.
	Filter ops.FilterKernel
	// Map is the vectorized projection of a one-to-one Map node. A Map whose
	// row function can emit zero or several tuples per input must not declare
	// one.
	Map ops.MapKernel
}

// AggColSpec declares an Aggregate node's vectorized execution: columnar
// window state (ops.ColWindow) folded by a typed kernel instead of the row
// Fold closure over []core.Tuple. Fold must compute exactly the row Fold's
// output for every window, and Key (required iff the row spec has a group-by
// Key) must compute exactly the row key per tuple — the shard partitioner
// also uses it to extract whole batches' routing keys in one pass. A node
// without a complete spec runs the spec ops derives from its row closures
// (ops.DeriveAggColSpec); declaring one never changes the sink-observable
// output or any contribution graph.
type AggColSpec struct {
	// Schema declares the typed columns the window state buffers and the
	// kernels read.
	Schema *ops.ColSchema
	// Key is the vectorized group-by extraction (required iff the row spec is
	// keyed).
	Key ops.KeyKernel
	// Fold computes one window's output from its columnar segment.
	Fold ops.AggKernel
}

func (c *AggColSpec) ops() ops.AggColSpec {
	return ops.AggColSpec{Schema: c.Schema, Key: c.Key, Fold: c.Fold}
}

// JoinColSpec declares a keyed Join node's vectorized execution: hash-probed
// columnar window state instead of a full-buffer predicate scan. The contract
// is the one ops.JoinColSpec documents — the row Predicate must be exactly
// key equality plus the optional residual the kernels compute. LeftKey and
// RightKey, when declared with their schemas, additionally vectorize the
// shard partitioners' routing-key extraction (they must compute exactly the
// row LeftKey/RightKey per tuple). A node without a spec runs the spec ops
// derives from its row predicate (ops.DeriveJoinColSpec); declaring one never
// changes the sink-observable output or any contribution graph.
type JoinColSpec struct {
	// Left and Right declare the columns buffered per side; required only
	// when the residual kernels (or the key kernels) read them.
	Left, Right *ops.ColSchema
	// LeftKey and RightKey vectorize the per-side routing-key extraction at
	// the shard partitioners (optional).
	LeftKey, RightKey ops.KeyKernel
	// ResidualL and ResidualR filter the same-key candidates over typed
	// columns (both or neither; nil for a pure equi-join).
	ResidualL, ResidualR ops.ProbeKernel
}

func (c *JoinColSpec) ops() ops.JoinColSpec {
	return ops.JoinColSpec{Left: c.Left, Right: c.Right, ResidualL: c.ResidualL, ResidualR: c.ResidualR}
}

// Node is an operator under construction. Exported fields may be set between
// Add* and Build.
type Node struct {
	name string
	kind NodeKind
	idx  int // position in the builder's node list

	// clone is the planner's decision for a Multiplex: whether its branches
	// receive per-branch copies or share the input object (set by every
	// Build; see decideMultiplexClones).
	clone bool

	srcFn    ops.SourceFunc
	sinkFn   ops.SinkFunc
	mapFn    ops.MapFunc
	pred     func(core.Tuple) bool
	aggSpec  ops.AggregateSpec
	joinSpec ops.JoinSpec
	factory  CustomFactory
	nIn      int // custom: required input count (-1 = any)
	nOut     int // custom: required output count (-1 = any)
	// readOnly marks a Custom node that never writes the tuples it
	// consumes (see ReadOnly).
	readOnly bool

	// Rate paces a Source to about Rate tuples per second (0 = unlimited).
	Rate float64
	// Burst replaces a Source's fixed Rate with an on/off duty cycle
	// (see ops.BurstPacing).
	Burst *ops.BurstPacing
	// Now overrides the wall clock of a Source or Sink (tests).
	Now func() int64
	// OnEmit observes every tuple emitted by a Source (metrics hook).
	OnEmit func(core.Tuple)
	// OnLatency observes each sink tuple's latency in nanoseconds.
	OnLatency func(core.Tuple, int64)
	// Parallelism, when > 1, shard-parallelises a stateful node: Build
	// expands it into that many independent operator instances, each owning
	// a hash-partition of the key space, bracketed by a partitioner and a
	// deterministic (timestamp, key) fan-in merge, so the sink-observable
	// output is identical to serial execution. Only Aggregate nodes with a
	// group-by Key and Join nodes with LeftKey/RightKey support it; Build
	// rejects it elsewhere.
	Parallelism int
	// colSpec is the node's declared vectorized capability (see ColSpec and
	// the Columnar chainer).
	colSpec *ColSpec
	// aggCol and joinCol are the declared stateful vectorized capabilities
	// (see AggColSpec/JoinColSpec and the ColumnarAgg/ColumnarJoin chainers).
	aggCol  *AggColSpec
	joinCol *JoinColSpec
	// ShardKey, on a stateless node heading a chain that feeds a
	// shard-parallel stateful node, declares the partition key of the
	// tuples *entering* this node: routing them by ShardKey must land every
	// tuple on the shard its descendants' group-by/join key hashes to. The
	// planner needs the declaration to hoist the shard partitioner above a
	// prefix containing a Map (Maps create new tuples the stateful key
	// function may not apply to); prefixes of Filters and pass-through
	// stages hoist without it, routed by the stateful key itself. A declared
	// ShardKey always takes precedence over the stateful key at the hoisted
	// partitioner, so it is also the way to hoist a prefix that narrows a
	// heterogeneous stream the stateful key cannot read (see WithFusion).
	ShardKey func(core.Tuple) string
}

// Parallel sets the node's shard parallelism (see Parallelism) and returns
// the node for chaining: b.AddAggregate(...).Parallel(4).
func (n *Node) Parallel(p int) *Node {
	n.Parallelism = p
	return n
}

// ShardKeyed sets the node's declared partition key (see ShardKey) and
// returns the node for chaining: b.AddMap(...).ShardKeyed(key).
func (n *Node) ShardKeyed(key func(core.Tuple) string) *Node {
	n.ShardKey = key
	return n
}

// Columnar declares the node's vectorized kernels (see ColSpec) and returns
// the node for chaining: b.AddFilter(...).Columnar(spec).
func (n *Node) Columnar(spec ColSpec) *Node {
	n.colSpec = &spec
	return n
}

// ColumnarAgg declares an Aggregate node's vectorized execution (see
// AggColSpec) and returns the node for chaining:
// b.AddAggregate(...).ColumnarAgg(spec).
func (n *Node) ColumnarAgg(spec AggColSpec) *Node {
	n.aggCol = &spec
	return n
}

// ColumnarJoin declares a keyed Join node's vectorized execution (see
// JoinColSpec) and returns the node for chaining:
// b.AddJoin(...).ColumnarJoin(spec).
func (n *Node) ColumnarJoin(spec JoinColSpec) *Node {
	n.joinCol = &spec
	return n
}

// ReadOnly declares that a Custom node only reads the tuples it consumes,
// meta-attributes included, and returns the node for chaining:
// b.AddCustom(...).ReadOnly(). The planner then no longer counts it as a
// possible writer when it decides whether a Multiplex upstream must clone
// (see decideMultiplexClones), so the node may receive an object a sibling
// branch also holds. An undeclared Custom node counts as a writer. Other
// kinds are classified by kind, and the mark has no effect on them.
func (n *Node) ReadOnly() *Node {
	n.readOnly = true
	return n
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Kind returns the node's operator kind.
func (n *Node) Kind() NodeKind { return n.kind }

type edge struct {
	from, to *Node
	port     string
}

// ProvenanceStore receives assembled provenance for durable serving: each
// delivered sink tuple with its originating tuples, plus watermark progress
// driving the store's retention. internal/provstore implements it; the
// provenance collector (internal/provenance) tees every assembled result
// into the builder's configured store.
type ProvenanceStore interface {
	// Ingest stores one delivered sink tuple and its originating tuples and
	// returns the durable sink-entry ID. An error fails the query.
	Ingest(sink core.Tuple, sources []core.Tuple) (uint64, error)
	// Advance raises the store's retention watermark.
	Advance(watermark int64)
}

// Builder accumulates nodes and edges and validates them into a Query.
type Builder struct {
	name      string
	instr     core.Instrumenter
	chanCap   int
	batchSize int
	fusion    bool
	vectorize bool
	provStore ProvenanceStore
	telem     *telemetry.Registry
	// qtel is the current Build's telemetry bucket (set per Build call when
	// telem is non-nil); the materialise helpers read it to attach counters
	// to streams and segments the edge loop never sees.
	qtel *telemetry.QueryTelemetry
	// adaptMin/adaptMax bound the adaptive batching controller; adaptMax > 0
	// means adaptive batching is on. adaptTargets collects every stream the
	// current Build materialises (set per Build call), including the internal
	// lanes of shard subgraphs, for the controller to drive.
	adaptMin, adaptMax int
	adaptTargets       []adapt.Target
	nodes              []*Node
	byName             map[string]*Node
	edges              []edge
	err                error
}

// Option configures a Builder.
type Option func(*Builder)

// WithInstrumenter selects the provenance instrumentation strategy (NP, GL
// or BL). The default is core.Noop (NP).
func WithInstrumenter(in core.Instrumenter) Option {
	return func(b *Builder) { b.instr = in }
}

// WithChannelCapacity sets the capacity of every stream the builder creates,
// in tuples: backpressure engages at the same buffered depth whatever the
// batch size, and keeps doing so when adaptive batching resizes batches
// mid-run.
func WithChannelCapacity(n int) Option {
	return func(b *Builder) { b.chanCap = n }
}

// WithBatchSize sets the batch size of every stream the builder creates
// (including the internal streams of shard-parallel subgraphs): tuples cross
// each stream in vectors of up to n, amortising per-tuple channel operations.
// n <= 1 (the default) preserves unbatched per-tuple transport. Batching
// never changes the sink-observable output or any tuple's contribution
// graph — operators flush partial batches whenever they would otherwise
// block on their streams — it only trades per-tuple latency for throughput.
//
// One caveat: the engine cannot observe a Source generator blocking inside
// user code (a live feed, a sleep between emits). A rate-paced Source
// (Node.Rate) flushes before every pacer sleep; a self-pacing generator
// that batches should emit steadily or run with batch size 1, or up to
// n-1 tuples can sit unpublished while it blocks.
func WithBatchSize(n int) Option {
	return func(b *Builder) { b.batchSize = n }
}

// WithAdaptiveBatching puts every stream the builder creates — including the
// internal lanes of shard-parallel subgraphs — under an AIMD controller
// (internal/adapt) that resizes batch sizes at runtime within [min, max]:
// growing while a stream's queue is deep and its batches run full, shrinking
// toward min while occupancy is low. The initial size is WithBatchSize's
// value clamped into the bounds. Like batching itself, adaptation never
// changes the sink-observable output or any tuple's contribution graph —
// batch boundaries carry no meaning — it only moves each stream along the
// latency/throughput trade-off as the load changes. The controller goroutine
// starts with Query.Run and stops when the run ends.
func WithAdaptiveBatching(min, max int) Option {
	return func(b *Builder) {
		if min < 1 {
			min = 1
		}
		if max < min {
			max = min
		}
		b.adaptMin, b.adaptMax = min, max
	}
}

// WithFusion enables or disables the physical planner (default enabled):
// Build rewrites the logical graph before materialisation, collapsing
// maximal stateless chains into single fused operators and replicating
// stateless prefixes of shard-parallel stateful nodes into the shard lanes.
// The rewrite never changes the sink-observable output or any tuple's
// contribution graph — instrumenter hooks fire once per logical stage either
// way — it only removes framework overhead. Disabling it materialises every
// logical node as its own operator and stream (useful to measure the
// planner's effect, or as an escape hatch).
//
// One contract comes with prefix hoisting: the partitioner of a hoisted
// prefix applies the stateful operator's key function to the *pre-prefix*
// stream. For chains of Filters and pass-through stages over a homogeneous
// stream — the common case — that is the same tuple type the key already
// accepts. A prefix that *narrows* a heterogeneous stream (say, a
// type-guard Filter in front of a key that type-asserts) must either
// declare a total ShardKey on the chain's first node, which then routes
// instead, or disable fusion; a key that panics on a pre-prefix tuple
// fails the query with a descriptive error rather than crashing.
func WithFusion(on bool) Option {
	return func(b *Builder) { b.fusion = on }
}

// WithVectorize selects whether declared kernels run (default enabled):
// fused chains and standalone operators whose every stage declares a
// kernel-capable ColSpec run as ops.ColChain over struct-of-arrays batches;
// stateful nodes with a declared AggColSpec or JoinColSpec fold/probe typed
// window columns with their kernels, serially or in every shard lane; and
// shard partitioners with a declared Key kernel extract a batch's keys in
// one pass. Disabled, every operator runs its row closures: stateful nodes
// run the same ops.ColAggregate/ColJoin on the spec derived from their row
// closures (ops.DeriveAggColSpec/DeriveJoinColSpec). Like fusion the choice
// is purely physical — sink bytes and every contribution graph are
// byte-identical either way — and it is independent of WithFusion.
func WithVectorize(on bool) Option {
	return func(b *Builder) { b.vectorize = on }
}

// WithProvenanceStore attaches a durable provenance store to the query:
// every provenance collector added to the builder tees the (sink tuple,
// originating tuples) pairs it assembles into the store and drives the
// store's retention watermark from the unfolded stream's progress. The
// default is nil — provenance is assembled, observed and dropped, as in the
// paper's evaluation.
func WithProvenanceStore(ps ProvenanceStore) Option {
	return func(b *Builder) { b.provStore = ps }
}

// WithTelemetry attaches a live metrics registry to the query: Build
// registers every physical plan node (under the same ids Explain prints)
// and attaches per-batch counters to every materialised stream, including
// the internal lanes of shard-parallel subgraphs. The registry serves the
// figures over HTTP (telemetry.Registry.Listen). The default is nil — no
// registration, and the streams' telemetry pointers stay nil, so the hot
// path pays exactly one never-taken branch per batch.
func WithTelemetry(r *telemetry.Registry) Option {
	return func(b *Builder) { b.telem = r }
}

// New returns a Builder for a query with the given name.
func New(name string, opts ...Option) *Builder {
	b := &Builder{
		name:      name,
		instr:     core.Noop{},
		fusion:    true,
		vectorize: true,
		byName:    make(map[string]*Node),
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Instrumenter returns the provenance strategy the query is built with.
func (b *Builder) Instrumenter() core.Instrumenter { return b.instr }

// ProvenanceStore returns the durable provenance store the query is built
// with (nil when provenance is not persisted).
func (b *Builder) ProvenanceStore() ProvenanceStore { return b.provStore }

func (b *Builder) add(n *Node) *Node {
	if _, dup := b.byName[n.name]; dup {
		b.fail(fmt.Errorf("duplicate operator name %q", n.name))
		return n
	}
	b.byName[n.name] = n
	n.idx = len(b.nodes)
	b.nodes = append(b.nodes, n)
	return n
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// AddSource adds a Source node.
func (b *Builder) AddSource(name string, gen ops.SourceFunc) *Node {
	return b.add(&Node{name: name, kind: KindSource, srcFn: gen})
}

// AddSink adds a Sink node. fn may be nil to discard tuples.
func (b *Builder) AddSink(name string, fn ops.SinkFunc) *Node {
	return b.add(&Node{name: name, kind: KindSink, sinkFn: fn})
}

// AddMap adds a Map node.
func (b *Builder) AddMap(name string, fn ops.MapFunc) *Node {
	return b.add(&Node{name: name, kind: KindMap, mapFn: fn})
}

// AddFilter adds a Filter node.
func (b *Builder) AddFilter(name string, pred func(core.Tuple) bool) *Node {
	return b.add(&Node{name: name, kind: KindFilter, pred: pred})
}

// AddMultiplex adds a Multiplex node; its fan-out is the number of outgoing
// connections made from it.
func (b *Builder) AddMultiplex(name string) *Node {
	return b.add(&Node{name: name, kind: KindMultiplex})
}

// AddUnion adds a Union node; its fan-in is the number of incoming
// connections made to it.
func (b *Builder) AddUnion(name string) *Node {
	return b.add(&Node{name: name, kind: KindUnion})
}

// AddAggregate adds an Aggregate node.
func (b *Builder) AddAggregate(name string, spec ops.AggregateSpec) *Node {
	return b.add(&Node{name: name, kind: KindAggregate, aggSpec: spec})
}

// AddJoin adds a Join node; connect its inputs with ConnectPort(...,
// PortLeft) and ConnectPort(..., PortRight).
func (b *Builder) AddJoin(name string, spec ops.JoinSpec) *Node {
	return b.add(&Node{name: name, kind: KindJoin, joinSpec: spec})
}

// AddCustom adds a user-defined operator node. nIn/nOut constrain the number
// of connections (use -1 for "any"). The factory receives the materialised
// streams in connection order.
func (b *Builder) AddCustom(name string, nIn, nOut int, factory CustomFactory) *Node {
	return b.add(&Node{name: name, kind: KindCustom, factory: factory, nIn: nIn, nOut: nOut})
}

// Connect adds a stream from the default output of from to the default
// input of to.
func (b *Builder) Connect(from, to *Node) { b.ConnectPort(from, to, PortDefault) }

// ConnectPort adds a stream from from to the named input port of to
// (PortLeft/PortRight for Join inputs).
func (b *Builder) ConnectPort(from, to *Node, port string) {
	if from == nil || to == nil {
		b.fail(errors.New("connect: nil node"))
		return
	}
	b.edges = append(b.edges, edge{from: from, to: to, port: port})
}

// Query is a validated, runnable operator DAG.
type Query struct {
	name      string
	operators []ops.Operator
	// controller, when non-nil, is the adaptive batching controller driving
	// every stream's batch size; Run gives it a goroutine for the duration
	// of the run.
	controller *adapt.Controller

	explain                    string
	fusedChains                int
	hoistedPrefixes            int
	fusedSuffixes              int
	vectorizedSegments         int
	vectorizedStatefulSegments int
}

// Name returns the query's name.
func (q *Query) Name() string { return q.name }

// Operators returns the materialised operators in construction order.
func (q *Query) Operators() []ops.Operator { return q.operators }

// Explain returns the physical plan Build materialised: one row per
// physical operator group, naming fused chains and shard subgraphs with
// their hoisted prefixes.
func (q *Query) Explain() string { return q.explain }

// FusedChains returns how many standalone fused-chain operators the plan
// contains (hoisted prefixes not included).
func (q *Query) FusedChains() int { return q.fusedChains }

// HoistedPrefixes returns how many stateless prefixes the plan replicated
// into shard-parallel subgraphs.
func (q *Query) HoistedPrefixes() int { return q.hoistedPrefixes }

// FusedSuffixes returns how many stateless chains the plan folded into the
// fan-in of a shard-parallel subgraph.
func (q *Query) FusedSuffixes() int { return q.fusedSuffixes }

// VectorizedSegments returns how many physical segments — fused chains,
// standalone stateless operators, and stateful operators (serial or shard
// subgraphs) — execute on the columnar runtime.
func (q *Query) VectorizedSegments() int { return q.vectorizedSegments }

// VectorizedStatefulSegments returns how many of the vectorized segments are
// stateful (ColAggregate/ColJoin window state, serial or shard-parallel); it
// is included in VectorizedSegments.
func (q *Query) VectorizedStatefulSegments() int { return q.vectorizedStatefulSegments }

// Build validates the DAG, plans the physical graph (operator fusion and
// shard-prefix replication, unless disabled with WithFusion(false)) and
// materialises streams and operators.
func (b *Builder) Build() (*Query, error) {
	if b.err != nil {
		return nil, fmt.Errorf("query %q: %w", b.name, b.err)
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("query %q: no operators", b.name)
	}
	if err := b.checkRegistered(); err != nil {
		return nil, fmt.Errorf("query %q: %w", b.name, err)
	}
	if err := b.checkAcyclic(); err != nil {
		return nil, fmt.Errorf("query %q: %w", b.name, err)
	}
	pl := b.plan()
	b.qtel, b.adaptTargets = nil, nil
	if b.telem != nil {
		b.qtel = b.telem.Register(b.name)
		for _, pn := range pl.nodes {
			b.qtel.Operator(pn.name(), kindLabel(pn), pn.kind == physSingle && pn.node.kind == KindSource)
		}
	}
	ins := make(map[*physNode][]*ops.Stream)
	outs := make(map[*physNode][]*ops.Stream)
	inPorts := make(map[*physNode]map[string]*ops.Stream)
	for _, e := range pl.edges {
		s := ops.NewBatchedStream(fmt.Sprintf("%s->%s", e.from.name(), e.to.name()), b.chanCap, b.batchSize)
		b.observeStream(s, e.from.name(), e.to.name())
		outs[e.from] = append(outs[e.from], s)
		ins[e.to] = append(ins[e.to], s)
		if e.port != PortDefault {
			if inPorts[e.to] == nil {
				inPorts[e.to] = make(map[string]*ops.Stream)
			}
			if _, dup := inPorts[e.to][e.port]; dup {
				return nil, fmt.Errorf("query %q: node %q: duplicate input port %q", b.name, e.to.name(), e.port)
			}
			inPorts[e.to][e.port] = s
		}
	}
	q := &Query{
		name:                       b.name,
		explain:                    pl.render(b.name, b.fusion, b.vectorize),
		fusedChains:                pl.fusedChains,
		hoistedPrefixes:            pl.hoistedPrefixes,
		fusedSuffixes:              pl.fusedSuffixes,
		vectorizedSegments:         pl.vectorizedSegments,
		vectorizedStatefulSegments: pl.vectorizedStateful,
	}
	for _, pn := range pl.nodes {
		switch {
		case pn.kind == physShard:
			expanded, err := b.materialiseShard(pn, ins[pn], outs[pn], inPorts[pn])
			if err != nil {
				return nil, fmt.Errorf("query %q: node %q: %w", b.name, pn.node.name, err)
			}
			q.operators = append(q.operators, expanded...)
		case pn.kind == physFused, pn.vec && !pn.node.kind.stateful():
			op, err := b.materialiseChain(pn, ins[pn], outs[pn])
			if err != nil {
				return nil, fmt.Errorf("query %q: node %q: %w", b.name, pn.name(), err)
			}
			q.operators = append(q.operators, op)
		default:
			op, err := b.materialise(pn, ins[pn], outs[pn], inPorts[pn])
			if err != nil {
				return nil, fmt.Errorf("query %q: node %q: %w", b.name, pn.node.name, err)
			}
			q.operators = append(q.operators, op)
		}
	}
	if b.adaptMax > 0 && len(b.adaptTargets) > 0 {
		q.controller = adapt.NewController(adapt.Defaults(b.adaptMin, b.adaptMax), b.adaptTargets)
	}
	return q, nil
}

// kindLabel renders a physical node's kind for telemetry: the logical
// operator kind, the chain flavour, or the shard expansion's shape.
func kindLabel(pn *physNode) string {
	switch pn.kind {
	case physFused:
		if pn.vec {
			return "vec-chain"
		}
		return "fused-chain"
	case physShard:
		label := fmt.Sprintf("%s x%d", pn.node.kind, pn.node.Parallelism)
		if pn.vec {
			label += " vec"
		}
		return label
	default:
		if pn.vec {
			return pn.node.kind.String() + " vec"
		}
		return pn.node.kind.String()
	}
}

// queueProbe returns the scrape-time channel occupancy sampler of a stream.
func queueProbe(s *ops.Stream) func() (int, int) {
	return func() (int, int) { return s.QueueLen(), s.QueueCap() }
}

// observeStream attaches telemetry counters to one materialised stream and,
// when adaptive batching is on, raises the stream's batch-size limit to the
// controller's maximum, clamps its starting size into the controller's
// bounds, and registers it as a controller target. Adaptive queries without
// a telemetry registry still get per-stream counters — the controller's
// fill signal needs them — they just aren't exported anywhere.
func (b *Builder) observeStream(s *ops.Stream, from, to string) {
	var st *telemetry.StreamStats
	if b.qtel != nil {
		st = b.qtel.Stream(s.Name(), from, to, s.BatchSize, queueProbe(s))
		s.SetTelemetry(st)
	}
	if b.adaptMax <= 0 {
		return
	}
	if st == nil {
		st = new(telemetry.StreamStats)
		s.SetTelemetry(st)
	}
	if b.adaptMax > s.BatchSizeLimit() {
		s.SetBatchSizeLimit(b.adaptMax)
	}
	bs := s.BatchSize()
	if bs < b.adaptMin {
		bs = b.adaptMin
	}
	if bs > b.adaptMax {
		bs = b.adaptMax
	}
	s.SetBatchSize(bs)
	b.adaptTargets = append(b.adaptTargets, adapt.Target{Name: s.Name(), Stream: s, Stats: st})
}

// observeShardStream attaches telemetry (and the adaptive controller) to one
// internal stream of a shard subgraph; the producer/consumer ids come from
// the stream's name.
func (b *Builder) observeShardStream(s *ops.Stream) {
	from, to, _ := strings.Cut(s.Name(), "->")
	b.observeStream(s, from, to)
}

// checkRegistered rejects edges to *Node values that were never added to
// this builder (e.g. nodes of another builder, or hand-constructed ones):
// their streams would have no operator draining them and the query would
// hang at Run.
func (b *Builder) checkRegistered() error {
	check := func(n *Node) error {
		if reg, ok := b.byName[n.name]; !ok || reg != n {
			return fmt.Errorf("connect: node %q was not added to this builder", n.name)
		}
		return nil
	}
	for _, e := range b.edges {
		if err := check(e.from); err != nil {
			return err
		}
		if err := check(e.to); err != nil {
			return err
		}
	}
	return nil
}

// materialiseChain builds the single operator of a stateless segment: a
// ColChain when pass 3 vectorized it (a fused chain, or a lone declared
// Map/Filter node), else the FusedChain of a fused chain.
func (b *Builder) materialiseChain(pn *physNode, in, out []*ops.Stream) (ops.Operator, error) {
	if len(in) != 1 || len(out) != 1 {
		return nil, fmt.Errorf("chain needs 1 input and 1 output, has %d/%d", len(in), len(out))
	}
	var seg *telemetry.SegStats
	if b.qtel != nil {
		seg = b.qtel.Segment(pn.name())
	}
	if pn.vec {
		cc := ops.NewColChain(pn.name(), in[0], out[0], colStagesFor(pn.stageNodes()), b.instr)
		cc.Seg = seg
		return cc, nil
	}
	fc := ops.NewFusedChain(pn.name(), in[0], out[0], stagesFor(pn.chain), b.instr)
	fc.Seg = seg
	return fc, nil
}

// materialiseShard expands a node with Parallelism > 1 into its shard
// subgraph (partitioner, shard instances with inlined hoisted prefixes,
// fan-in with inlined suffix).
func (b *Builder) materialiseShard(pn *physNode, in, out []*ops.Stream, ports map[string]*ops.Stream) ([]ops.Operator, error) {
	n := pn.node
	switch n.kind {
	case KindAggregate:
		if len(in) != 1 || len(out) != 1 {
			return nil, fmt.Errorf("%s needs 1 input and 1 output, has %d/%d", n.kind, len(in), len(out))
		}
		cfg := ops.ShardConfig{Agg: pn.aggColSpec(), Prefix: pn.shardPrefixFor(PortDefault), Suffix: pn.shardSuffix()}
		if b.qtel != nil || b.adaptMax > 0 {
			cfg.Observe = b.observeShardStream
		}
		if b.vectorize {
			cfg.ColKey = colKeyFor(n, cfg.Prefix)
		}
		if c := pn.prefix[PortDefault]; pn.vec && len(c) > 0 {
			cfg.VecPrefix = colStagesFor(c)
		}
		return ops.ShardAggregateCfg(n.name, in[0], out[0], n.aggSpec, b.instr,
			n.Parallelism, b.chanCap, b.batchSize, cfg)
	case KindJoin:
		if len(in) != 2 || len(out) != 1 {
			return nil, fmt.Errorf("%s needs 2 inputs and 1 output, has %d/%d", n.kind, len(in), len(out))
		}
		left, right := ports[PortLeft], ports[PortRight]
		if left == nil || right == nil {
			return nil, errors.New("join inputs must be connected with PortLeft and PortRight")
		}
		cfg := ops.ShardJoinConfig{
			Join:   pn.joinColSpec(),
			Left:   pn.shardPrefixFor(PortLeft),
			Right:  pn.shardPrefixFor(PortRight),
			Suffix: pn.shardSuffix(),
		}
		if b.qtel != nil || b.adaptMax > 0 {
			cfg.Observe = b.observeShardStream
		}
		if b.vectorize {
			cfg.LeftColKey, cfg.RightColKey = joinColKeysFor(n, cfg.Left, cfg.Right)
		}
		return ops.ShardJoinCfg(n.name, left, right, out[0], n.joinSpec, b.instr,
			n.Parallelism, b.chanCap, b.batchSize, cfg)
	default:
		return nil, fmt.Errorf("parallelism is only supported on aggregate and join nodes, not %s", n.kind)
	}
}

// colKeyFor returns the vectorized routing-key extraction of a sharded
// aggregate: the Key kernel of its declared AggColSpec, usable only when the
// partitioner routes by the aggregate's own key function (no head-declared
// ShardKey overriding it).
func colKeyFor(n *Node, prefix *ops.ShardPrefix) *ops.ColKey {
	if prefix != nil && prefix.Key != nil {
		return nil
	}
	if c := n.aggCol; c != nil && c.Key != nil && c.Schema != nil {
		return &ops.ColKey{Schema: c.Schema, Kernel: c.Key}
	}
	return nil
}

// joinColKeysFor returns the vectorized per-side routing-key extractions of a
// sharded join: the node's declared LeftKey/RightKey kernels, each usable
// only when its partitioner routes by the join's own key function (no
// head-declared ShardKey on that side's prefix). Join prefixes are Map-free
// (the planner never hoists a Map onto a join), so the declared schemas apply
// to the pre-prefix stream the partitioners consume.
func joinColKeysFor(n *Node, leftPrefix, rightPrefix *ops.ShardPrefix) (l, r *ops.ColKey) {
	c := n.joinCol
	if c == nil {
		return nil, nil
	}
	if (leftPrefix == nil || leftPrefix.Key == nil) && c.LeftKey != nil && c.Left != nil {
		l = &ops.ColKey{Schema: c.Left, Kernel: c.LeftKey}
	}
	if (rightPrefix == nil || rightPrefix.Key == nil) && c.RightKey != nil && c.Right != nil {
		r = &ops.ColKey{Schema: c.Right, Kernel: c.RightKey}
	}
	return l, r
}

// ParallelizeStateful applies shard parallelism p to every stateful node
// that can be partitioned by key: Aggregates with a group-by Key and Joins
// with both equi-join key extractors. Unkeyed stateful nodes keep serial
// execution (there is no key space to partition). p < 2 is a no-op. It is a
// convenience for callers — the harness's parallelism dimension — that
// parameterise whole queries rather than individual nodes.
func (b *Builder) ParallelizeStateful(p int) {
	if p < 2 {
		return
	}
	for _, n := range b.nodes {
		switch n.kind {
		case KindAggregate:
			if n.aggSpec.Key != nil {
				n.Parallelism = p
			}
		case KindJoin:
			if n.joinSpec.LeftKey != nil && n.joinSpec.RightKey != nil {
				n.Parallelism = p
			}
		}
	}
}

// ProvenanceHorizon derives the provenance retention horizon of the
// assembled graph: how far (in event-time units) a durable provenance
// store's watermark may trail the newest sink delivery while tuples
// contributing to not-yet-delivered results are still in flight. Along any
// path from a node to a sink, a tuple can be held by each windowed operator
// (Aggregate, Join) for up to its window span before the derived result
// moves on, so the in-flight depth of the graph is the maximum over nodes of
// the summed window spans on any downstream path. The returned horizon is
// twice that depth — one depth for how old a contributing tuple's event time
// can be relative to its result, and one more as slack for watermark
// coarsening (watermarks advance per batch/window, not per tuple). Stateless
// graphs (depth 0) get a horizon of 0, meaning "retire immediately behind
// the watermark"; callers wanting unbounded retention should not set a
// horizon at all.
//
// The graph must be acyclic (Build validates this; calling earlier on a
// cyclic graph panics on stack exhaustion).
func (b *Builder) ProvenanceHorizon() int64 {
	succ := make(map[*Node][]*Node, len(b.nodes))
	for _, e := range b.edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	span := func(n *Node) int64 {
		switch n.kind {
		case KindAggregate:
			return n.aggSpec.WS
		case KindJoin:
			return n.joinSpec.WS
		default:
			return 0
		}
	}
	memo := make(map[*Node]int64, len(b.nodes))
	var depth func(n *Node) int64
	depth = func(n *Node) int64 {
		if d, ok := memo[n]; ok {
			return d
		}
		var below int64
		for _, s := range succ[n] {
			if d := depth(s); d > below {
				below = d
			}
		}
		d := span(n) + below
		memo[n] = d
		return d
	}
	var max int64
	for _, n := range b.nodes {
		if d := depth(n); d > max {
			max = d
		}
	}
	return 2 * max
}

func (b *Builder) materialise(pn *physNode, in, out []*ops.Stream, ports map[string]*ops.Stream) (ops.Operator, error) {
	n := pn.node
	need := func(nIn, nOut int) error {
		if nIn >= 0 && len(in) != nIn {
			return fmt.Errorf("%s needs %d input(s), has %d", n.kind, nIn, len(in))
		}
		if nOut >= 0 && len(out) != nOut {
			return fmt.Errorf("%s needs %d output(s), has %d", n.kind, nOut, len(out))
		}
		return nil
	}
	switch n.kind {
	case KindSource:
		if err := need(0, 1); err != nil {
			return nil, err
		}
		src := ops.NewSource(n.name, n.srcFn, out[0], b.instr)
		src.Rate = n.Rate
		src.Burst = n.Burst
		src.Now = n.Now
		src.OnEmit = n.OnEmit
		return src, nil
	case KindSink:
		if err := need(1, 0); err != nil {
			return nil, err
		}
		sink := ops.NewSink(n.name, in[0], n.sinkFn)
		sink.Now = n.Now
		sink.OnLatency = n.OnLatency
		return sink, nil
	case KindMap:
		if err := need(1, 1); err != nil {
			return nil, err
		}
		return ops.NewMap(n.name, in[0], out[0], n.mapFn, b.instr), nil
	case KindFilter:
		if err := need(1, 1); err != nil {
			return nil, err
		}
		return ops.NewFilter(n.name, in[0], out[0], n.pred), nil
	case KindMultiplex:
		if err := need(1, -1); err != nil {
			return nil, err
		}
		if len(out) == 0 {
			return nil, errors.New("multiplex needs at least one output")
		}
		return ops.NewMultiplex(n.name, in[0], out, b.instr, n.clone), nil
	case KindUnion:
		if err := need(-1, 1); err != nil {
			return nil, err
		}
		if len(in) == 0 {
			return nil, errors.New("union needs at least one input")
		}
		return ops.NewUnion(n.name, in, out[0]), nil
	case KindAggregate:
		if err := need(1, 1); err != nil {
			return nil, err
		}
		return ops.NewColAggregate(n.name, in[0], out[0], n.aggSpec, pn.aggColSpec(), nil, nil, b.instr), nil
	case KindJoin:
		if err := need(2, 1); err != nil {
			return nil, err
		}
		left, right := ports[PortLeft], ports[PortRight]
		if left == nil || right == nil {
			return nil, errors.New("join inputs must be connected with PortLeft and PortRight")
		}
		return ops.NewColJoin(n.name, left, right, out[0], n.joinSpec, pn.joinColSpec(), nil, nil, b.instr), nil
	case KindCustom:
		if err := need(n.nIn, n.nOut); err != nil {
			return nil, err
		}
		return n.factory(in, out)
	default:
		return nil, fmt.Errorf("unknown node kind %d", n.kind)
	}
}

// checkAcyclic verifies the connection graph is a DAG (Kahn's algorithm).
func (b *Builder) checkAcyclic() error {
	indeg := make(map[*Node]int, len(b.nodes))
	succ := make(map[*Node][]*Node, len(b.nodes))
	for _, e := range b.edges {
		indeg[e.to]++
		succ[e.from] = append(succ[e.from], e.to)
	}
	var frontier []*Node
	for _, n := range b.nodes {
		if indeg[n] == 0 {
			frontier = append(frontier, n)
		}
	}
	seen := 0
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		seen++
		for _, s := range succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	if seen != len(b.nodes) {
		return errors.New("operator graph has a cycle")
	}
	return nil
}

// Run executes every operator on its own goroutine and blocks until the
// query drains (all sources exhausted and all tuples processed) or an
// operator fails, in which case the context shared by all operators is
// cancelled and the first error is returned (joined with any secondary
// errors caused by the cancellation).
func (q *Query) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if q.controller != nil {
		done := make(chan struct{})
		go func() {
			defer close(done)
			q.controller.Run(ctx)
		}()
		// Cancel before waiting: this defer runs before the outer
		// `defer cancel()`, so it must stop the controller itself or the
		// wait never returns. Waiting matters so no tick races a re-run of
		// the same query.
		defer func() {
			cancel()
			<-done
		}()
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for _, op := range q.operators {
		wg.Add(1)
		go func(op ops.Operator) {
			defer wg.Done()
			if err := op.Run(ctx); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("operator %q: %w", op.Name(), err))
				mu.Unlock()
				cancel()
			}
		}(op)
	}
	wg.Wait()
	if len(errs) > 0 {
		return fmt.Errorf("query %q: %w", q.name, errors.Join(errs...))
	}
	return nil
}
