// Package harness orchestrates the paper's evaluation (§7): it deploys the
// evaluation queries (Q1/Q2 Linear Road, Q3/Q4 Smart Grid, Q5 bursty
// clickstream) under the three provenance techniques (NP = none, GL =
// GeneaLog, BL = Ariadne-style baseline), intra-process and across three
// SPE instances, measures throughput, latency, memory, contribution-graph
// traversal time and provenance volume, and renders the rows of Figures 12,
// 13 and 14.
package harness

import (
	"fmt"
	"time"

	"genealog/internal/clickstream"
	"genealog/internal/linearroad"
	"genealog/internal/ops"
	"genealog/internal/provenance"
	"genealog/internal/provstore"
	"genealog/internal/smartgrid"
	"genealog/internal/telemetry"
	"genealog/internal/transport"
)

// Mode selects the provenance technique, the paper's NP/GL/BL.
type Mode string

// Provenance techniques.
const (
	ModeNP Mode = "NP"
	ModeGL Mode = "GL"
	ModeBL Mode = "BL"
)

// Modes lists the techniques in the paper's plotting order.
var Modes = []Mode{ModeNP, ModeGL, ModeBL}

// QueryID identifies one of the evaluation queries.
type QueryID string

// Evaluation queries. Q1-Q4 are the paper's use cases; Q5 is the bursty
// clickstream workload added to exercise adaptive batching.
const (
	Q1 QueryID = "Q1"
	Q2 QueryID = "Q2"
	Q3 QueryID = "Q3"
	Q4 QueryID = "Q4"
	Q5 QueryID = "Q5"
)

// Queries lists the evaluation queries in the paper's order.
var Queries = []QueryID{Q1, Q2, Q3, Q4, Q5}

// Deployment selects intra-process (Fig. 12) or inter-process (Fig. 13)
// execution.
type Deployment uint8

// Deployments.
const (
	Intra Deployment = iota + 1
	Inter
)

func (d Deployment) String() string {
	switch d {
	case Intra:
		return "intra-process"
	case Inter:
		return "inter-process"
	default:
		return "invalid"
	}
}

// DefaultAdaptiveMaxBatch is the adaptive controller's upper batch-size
// bound when Options.AdaptiveMaxBatch is zero.
const DefaultAdaptiveMaxBatch = 64

// adaptiveBounds resolves the adaptive controller's batch-size bounds with
// defaults applied (1 and DefaultAdaptiveMaxBatch).
func adaptiveBounds(o Options) (lo, hi int) {
	lo, hi = o.AdaptiveMinBatch, o.AdaptiveMaxBatch
	if lo <= 0 {
		lo = 1
	}
	if hi <= 0 {
		hi = DefaultAdaptiveMaxBatch
	}
	return lo, hi
}

// Options configures one measured run.
type Options struct {
	Query      QueryID
	Mode       Mode
	Deployment Deployment
	// LR, SG and CS parameterise the workload generators; zero values select
	// the package defaults.
	LR linearroad.Config
	SG smartgrid.Config
	CS clickstream.Config
	// MemSampleEvery is the heap sampling period (default 5 ms).
	MemSampleEvery time.Duration
	// ThrottleBytesPerSec throttles every inter-process link (0 =
	// unlimited; 12.5e6 models the paper's 100 Mbps switch).
	ThrottleBytesPerSec float64
	// ChannelCapacity overrides the stream capacity (0 = default).
	ChannelCapacity int
	// SourceRate paces the sources in tuples/second (0 = as fast as
	// possible, measuring peak sustainable throughput).
	SourceRate float64
	// SourceBurst, when non-nil, replaces the fixed SourceRate with an
	// on/off duty cycle (see ops.BurstPacing) — the workload shape the
	// adaptive batching controller is built for. Pacing only changes
	// arrival times; sink tuples and provenance stay byte-identical.
	SourceBurst *ops.BurstPacing
	// Parallelism shard-parallelises every keyed stateful operator
	// (Aggregate with a group-by key, Join with equi-join keys) across this
	// many instances; 0 or 1 selects serial execution. Sink tuples and
	// provenance are byte-identical at every level — keyed joins order
	// same-timestamp matches by (timestamp, left key, right key) at every
	// parallelism, see ops.ShardJoinCfg — only the core utilisation changes
	// (query.Builder.ParallelizeStateful).
	Parallelism int
	// BatchSize sets the stream batch size: tuples cross every operator
	// queue — and every inter-process link — in vectors of up to this many,
	// amortising per-tuple channel and framing costs. 0 or 1 selects
	// unbatched per-tuple transport. Sink tuples and provenance are
	// byte-identical at every batch size; only throughput and per-tuple
	// latency change.
	BatchSize int
	// AdaptiveBatch turns on the AIMD batch-size controller
	// (internal/adapt): every stream's batch size is resized at runtime
	// from queue occupancy and batch fill, between AdaptiveMinBatch and
	// AdaptiveMaxBatch. BatchSize then only seeds the initial size. Sink
	// tuples and provenance are byte-identical with and without the
	// controller; only throughput and latency change.
	AdaptiveBatch bool
	// AdaptiveMinBatch and AdaptiveMaxBatch bound the controller
	// (defaults 1 and DefaultAdaptiveMaxBatch).
	AdaptiveMinBatch int
	AdaptiveMaxBatch int
	// UseGobCodec switches inter-process links from the default hand-rolled
	// binary codec to encoding/gob (the serialisation ablation).
	UseGobCodec bool
	// NoFusion disables the physical query planner (query.WithFusion):
	// every logical operator materialises as its own goroutine and stream
	// instead of fusing stateless chains and replicating stateless prefixes
	// into shard lanes. Sink tuples and provenance are identical either way;
	// only the framework overhead changes. The zero value keeps the planner
	// on (the engine default).
	NoFusion bool
	// NoVectorize disables the planner's columnar pass (query.WithVectorize):
	// every operator runs its row closures and ignores declared kernels.
	// Stateless segments run tuple-at-a-time instead of over struct-of-arrays
	// batches, stateful nodes run the same window operators on the spec
	// derived from their row closures, and shard partitions extract routing
	// keys per tuple instead of per batch. Sink tuples and provenance are
	// byte-identical either way; only the per-tuple interpretation overhead
	// changes. The zero value keeps vectorization on (the engine default).
	NoVectorize bool
	// StoreHorizon overrides the provenance store's retention horizon in
	// event-time units (0 = derive it from the query graph's stateful window
	// structure, which is always sufficient). Setting it tighter than the
	// derived value trades working-set size for re-encoding (surfaced by
	// Result.Warnings).
	StoreHorizon int64
	// StorePath, when non-empty, persists every assembled provenance result
	// (GL's traversed contribution graphs, BL's store joins) into a durable
	// provenance store — an internal/provstore append-only file log created
	// (truncated) at this path — with the query's retention horizon. After
	// the run the file answers Backward/Forward queries via
	// cmd/genealog-prov. The figure grids derive per-cell paths by appending
	// "-<query>-<mode>" (plus "-inter" for the inter-process grid) so cells
	// never overwrite each other; Repeat truncates the file per run, leaving
	// the last run's store.
	StorePath string
	// RemoteStore, when non-empty, streams every assembled provenance result
	// to the store node at this address (cmd/spe-node -store-listen) instead
	// of a local file: several SPE instances — or several whole deployments —
	// can share one store node, which merges their streams with per-instance
	// ID namespacing and answers global Backward/Forward queries live
	// (cmd/genealog-prov -connect). Deduplication and retention still run on
	// this instance; the run fails if the store node rejects or loses an
	// ingestion frame. Mutually exclusive with StorePath.
	RemoteStore string
	// Store, when non-nil, receives the assembled provenance instead of a
	// StorePath-created file log or a RemoteStore connection: the caller owns
	// the store's lifecycle (Close, queries after the run). Used by tests to
	// inspect an in-memory or remote-backed store; takes precedence over
	// StorePath and RemoteStore.
	Store *provstore.Store
	// OnProvenance, when non-nil, observes every assembled provenance
	// result, in delivery order, under any mode.
	OnProvenance func(provenance.Result)
	// Telemetry, when non-nil, receives live per-operator metrics from every
	// query the run builds (one registration per SPE instance in the
	// inter-process case, named "<query>-spe<n>") plus the provenance
	// store's ingest/retire/dedup counters when the run opens one. The
	// registry serves the figures over HTTP (telemetry.Registry.Listen);
	// nil — the default — keeps the hot path's telemetry pointers nil.
	Telemetry *telemetry.Registry
}

// Result is the outcome of one measured run.
type Result struct {
	Query      QueryID
	Mode       Mode
	Deployment Deployment
	// Parallelism is the shard parallelism the run executed with (0/1 =
	// serial).
	Parallelism int
	// BatchSize is the stream batch size the run executed with (0/1 =
	// unbatched). Under AdaptiveBatch it is only the initial size.
	BatchSize int
	// AdaptiveBatch reports whether the run executed with the AIMD
	// batch-size controller; AdaptiveMinBatch and AdaptiveMaxBatch are its
	// bounds (zero without the controller).
	AdaptiveBatch    bool
	AdaptiveMinBatch int
	AdaptiveMaxBatch int
	// Fusion reports whether the run executed with the physical planner
	// enabled (operator fusion + shard-prefix replication).
	Fusion bool
	// Vectorized reports whether the run executed with the planner's
	// columnar pass enabled (typed kernels over struct-of-arrays batches).
	Vectorized bool

	// SourceTuples is the number of source tuples processed.
	SourceTuples int64
	// SinkTuples is the number of sink tuples (alerts) produced.
	SinkTuples int64
	// ThroughputTPS is source tuples per second.
	ThroughputTPS float64
	// AvgLatencyMs is the paper's latency: sink emission minus the
	// wall-clock arrival of the latest contributing source tuple.
	AvgLatencyMs float64
	// P50LatencyMs and P99LatencyMs are latency quantiles (reservoir
	// sampled; exact for the typical alert volumes).
	P50LatencyMs float64
	P99LatencyMs float64
	// AvgMemMB and MaxMemMB are the sampled heap statistics.
	AvgMemMB float64
	MaxMemMB float64
	// ProvResults and ProvSources count assembled provenance results and
	// their (deduplicated) originating tuples.
	ProvResults int64
	ProvSources int64
	// TraversalAvgMs is the mean contribution-graph traversal time per sink
	// tuple (Fig. 14); per SPE instance in the inter-process case (index 0
	// = SPE instance 1).
	TraversalAvgMs       float64
	TraversalAvgMsPerSPE []float64
	// SourceBytes and ProvBytes approximate the source-data and
	// provenance-data volumes (the §7 "0.003%-0.5%" remark).
	SourceBytes int64
	ProvBytes   int64
	// NetBytes is the byte volume that crossed inter-process links.
	NetBytes int64
	// StoreBytes is the BL source store's final payload volume; StoreTuples
	// is its entry count (the paper's BL retains the whole source stream, so
	// with provenance-store rows next to these the BL-vs-GL serving cost is
	// directly comparable).
	StoreBytes  int64
	StoreTuples int64
	// ProvStoreBytes, ProvStoreSinks and ProvStoreSources describe the
	// durable provenance store written by the run (zero without one):
	// encoded volume, stored sink entries and deduplicated source entries.
	ProvStoreBytes   int64
	ProvStoreSinks   int64
	ProvStoreSources int64
	// ProvStoreDedup is source references per stored source entry (>= 1 when
	// sink tuples share sources; the serving-side saving of deduplication).
	ProvStoreDedup float64
	// ProvStoreReEncoded counts source tuples the store had to encode again
	// because their dedup handles were retired while sink tuples could still
	// reference them — a correctly sized retention horizon keeps it zero, so
	// any non-zero value is surfaced by Warnings.
	ProvStoreReEncoded int64
	// RemoteStore echoes Options.RemoteStore: the store node this run's
	// provenance was streamed to ("" for local stores).
	RemoteStore string
	// Elapsed is the wall-clock run duration.
	Elapsed time.Duration
}

// Warnings lists post-run conditions that deserve loud operator attention.
// Today that is one: the provenance store re-encoding retired sources, which
// means the retention horizon was too tight for the query's windows — the
// store stayed correct (every entry is durable) but the working-set bound
// was violated and duplicate encodings crept in. Widen the horizon
// (harness specs derive it as twice the query's window-span sum).
func (r Result) Warnings() []string {
	var w []string
	if r.ProvStoreReEncoded > 0 {
		w = append(w, fmt.Sprintf(
			"provenance store re-encoded %d source tuple(s): the retention horizon is too tight for %s's windows — dedup handles were retired while sink tuples could still reference them; widen the store horizon",
			r.ProvStoreReEncoded, r.Query))
	}
	return w
}

// ProvRatio returns provenance bytes over source bytes (e.g. 0.005 = 0.5%).
func (r Result) ProvRatio() float64 {
	if r.SourceBytes == 0 {
		return 0
	}
	return float64(r.ProvBytes) / float64(r.SourceBytes)
}

func (o *Options) validate() error {
	switch o.Query {
	case Q1, Q2, Q3, Q4, Q5:
	default:
		return fmt.Errorf("harness: unknown query %q", o.Query)
	}
	switch o.Mode {
	case ModeNP, ModeGL, ModeBL:
	default:
		return fmt.Errorf("harness: unknown mode %q", o.Mode)
	}
	switch o.Deployment {
	case Intra, Inter:
	default:
		return fmt.Errorf("harness: unknown deployment %d", o.Deployment)
	}
	if o.MemSampleEvery <= 0 {
		o.MemSampleEvery = 5 * time.Millisecond
	}
	if o.BatchSize < 0 {
		return fmt.Errorf("harness: negative batch size %d", o.BatchSize)
	}
	if o.BatchSize > transport.MaxBatchFrameTuples {
		return fmt.Errorf("harness: batch size %d exceeds the wire frame bound %d",
			o.BatchSize, transport.MaxBatchFrameTuples)
	}
	if o.AdaptiveBatch {
		min, max := adaptiveBounds(*o)
		if min > max {
			return fmt.Errorf("harness: adaptive batch bounds [%d, %d] are inverted", min, max)
		}
		if max > transport.MaxBatchFrameTuples {
			return fmt.Errorf("harness: adaptive max batch %d exceeds the wire frame bound %d",
				max, transport.MaxBatchFrameTuples)
		}
	}
	if o.StorePath != "" && o.RemoteStore != "" {
		return fmt.Errorf("harness: StorePath and RemoteStore are mutually exclusive (got %q and %q)",
			o.StorePath, o.RemoteStore)
	}
	if o.StoreHorizon < 0 {
		return fmt.Errorf("harness: negative store horizon %d", o.StoreHorizon)
	}
	return nil
}
