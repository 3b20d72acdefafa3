// Command genealog-bench reproduces the paper's evaluation (§7). It runs
// the use-case queries (Linear Road Q1-Q2, Smart Grid Q3-Q4, clickstream
// Q5) under NP (no provenance), GL (GeneaLog) and BL (the Ariadne-style
// baseline), intra-process and across three SPE instances, and prints the
// rows of Figures 12, 13 and 14 plus the provenance-volume report.
//
// Usage:
//
//	genealog-bench -experiment fig12            # intra-process grid
//	genealog-bench -experiment fig13 -runs 5    # inter-process grid, 5 runs
//	genealog-bench -experiment fig14            # traversal-cost panels
//	genealog-bench -experiment size             # provenance volume report
//	genealog-bench -experiment all -scale 4     # everything, 4x workload
//	genealog-bench -experiment fig12 -parallelism 4  # shard-parallel keyed operators
//	genealog-bench -experiment fig12 -parallelism 0 -batch 64  # auto shards, batched streams
//	genealog-bench -experiment fig12 -adaptive       # AIMD controller sizes batches live
//	genealog-bench -experiment fig12 -fuse=false     # planner off: one goroutine per operator
//	genealog-bench -experiment fig12 -v              # print every cell's physical plan
//	genealog-bench -experiment fig12 -store /tmp/prov  # persist per-cell provenance stores
//	genealog-bench -experiment fig12 -json > bench.json # machine-readable per-cell results
//	genealog-bench -experiment fig12 -remote-store 127.0.0.1:7432  # stream provenance to a store node
//
// The -throttle flag (bytes/second) models a constrained link, e.g.
// -throttle 12500000 for the paper's 100 Mbps switch. The -parallelism flag
// shard-parallelises every keyed stateful operator (1 = serial, 0 = auto:
// choose from the CPU count); sink tuples and provenance are byte-identical
// to serial execution at any level (keyed joins order same-timestamp matches
// by timestamp then join keys at every parallelism). The -batch flag moves
// tuples through operator queues and links in vectors of up to that many,
// trading per-tuple latency for throughput with byte-identical output. The
// -fuse flag (default on) controls the physical planner: stateless operator
// chains fuse into single goroutines and stateless prefixes of shard-parallel
// operators replicate into the shard lanes; output and provenance are
// byte-identical either way. The -vectorize flag (default on) controls the
// planner's columnar pass: stages and stateful nodes that declare typed
// kernels run them over struct-of-arrays columns; off, every operator runs
// its row closures (stateful nodes on the same window operators, through
// the derived spec), again with byte-identical output and provenance. The -adaptive
// flag (with -adaptive-min/-adaptive-max bounds) closes the telemetry
// feedback loop: an AIMD controller samples every stream's queue occupancy
// and batch fill and resizes its batch size live, growing under load and
// shrinking when queues drain — sink output and provenance stay
// byte-identical to any fixed batch size. -v prints each
// cell's physical plan before the runs. The -store flag
// persists every cell's assembled provenance into durable store files (one
// per query x mode cell, "-inter" suffix for the inter-process grid); after
// the runs, cmd/genealog-prov answers backward/forward queries against them,
// and the report gains per-cell store rows (bytes, dedup ratio) comparing
// GL's deduplicated store with BL's retain-everything source store.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"genealog/internal/clickstream"
	"genealog/internal/harness"
	"genealog/internal/linearroad"
	"genealog/internal/smartgrid"
	"genealog/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "genealog-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("genealog-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "fig12 | fig13 | fig14 | size | all")
	runs := fs.Int("runs", 3, "measured runs per configuration (the paper uses 5)")
	scale := fs.Int("scale", 1, "workload scale multiplier")
	throttle := fs.Float64("throttle", 0, "link throttle in bytes/second (0 = unlimited; 12.5e6 = 100 Mbps)")
	rate := fs.Float64("rate", 0, "source rate in tuples/second (0 = unthrottled)")
	parallelism := fs.Int("parallelism", 1, "shard parallelism for keyed stateful operators: 1 = serial, n > 1 = n shards, 0 = auto (choose from the CPU count)")
	batch := fs.Int("batch", 1, "stream batch size: tuples per channel/wire operation (0/1 = unbatched)")
	fuse := fs.Bool("fuse", true, "physical planner: fuse stateless operator chains and replicate stateless prefixes into shard lanes (false = one goroutine per logical operator)")
	vectorize := fs.Bool("vectorize", true, "columnar pass: run declared typed kernels — stateless stages, aggregate folds, join probes — over struct-of-arrays columns (false = every operator runs its row closures; stateful nodes keep the same window runtime)")
	adaptive := fs.Bool("adaptive", false, "adaptive batch sizing: an AIMD controller resizes every stream's batch size live from queue occupancy and batch fill (output stays byte-identical to any fixed size)")
	adaptiveMin := fs.Int("adaptive-min", 1, "adaptive batch sizing: smallest batch size the controller may shrink to")
	adaptiveMax := fs.Int("adaptive-max", harness.DefaultAdaptiveMaxBatch, "adaptive batch sizing: largest batch size the controller may grow to")
	jsonOut := fs.Bool("json", false, "emit machine-readable per-cell results as a JSON document instead of the rendered figures (plans and notes go to stderr)")
	storePath := fs.String("store", "", "persist each cell's assembled provenance into durable store files at this path prefix (suffix: -<query>-<mode>[-inter]); query them with genealog-prov")
	remoteStore := fs.String("remote-store", "", "stream each cell's assembled provenance to the store node at this address (spe-node -store-listen); query it live with genealog-prov -connect")
	verbose := fs.Bool("v", false, "print the physical plan of every (query, mode) cell before running")
	codec := fs.String("codec", "binary", "inter-process link codec: binary | gob")
	timeout := fs.Duration("timeout", 30*time.Minute, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fuseExplicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "fuse" {
			fuseExplicit = true
		}
	})
	if *scale < 1 {
		*scale = 1
	}
	p, err := resolveParallelism(*parallelism)
	if err != nil {
		return err
	}
	if *batch < 0 {
		return fmt.Errorf("batch must be non-negative, got %d", *batch)
	}
	if *batch > transport.MaxBatchFrameTuples {
		return fmt.Errorf("batch must not exceed the wire frame bound %d, got %d", transport.MaxBatchFrameTuples, *batch)
	}

	base := harness.Options{
		LR:                  lrConfig(*scale),
		SG:                  sgConfig(*scale),
		CS:                  csConfig(*scale),
		ThrottleBytesPerSec: *throttle,
		SourceRate:          *rate,
		Parallelism:         p,
		BatchSize:           *batch,
		AdaptiveBatch:       *adaptive,
		AdaptiveMinBatch:    *adaptiveMin,
		AdaptiveMaxBatch:    *adaptiveMax,
		UseGobCodec:         *codec == "gob",
		NoFusion:            !*fuse,
		NoVectorize:         !*vectorize,
		StorePath:           *storePath,
		RemoteStore:         *remoteStore,
	}
	if *storePath != "" && *remoteStore != "" {
		return fmt.Errorf("-store and -remote-store are mutually exclusive")
	}
	if *codec != "gob" && *codec != "binary" {
		return fmt.Errorf("unknown codec %q (want binary or gob)", *codec)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	want := func(name string) bool { return *experiment == name || *experiment == "all" }
	planOut := out
	if *jsonOut {
		// Keep stdout a single valid JSON document; plans and planner notes
		// remain available on stderr.
		planOut = os.Stderr
	}
	if err := reportPlans(planOut, base, *experiment, *verbose, *fuse && fuseExplicit); err != nil {
		return err
	}
	doc := benchDoc{
		Experiment: *experiment, Runs: *runs, Scale: *scale,
		Parallelism: p, Batch: *batch, Fuse: *fuse, Vectorize: *vectorize, Codec: *codec,
		Adaptive: *adaptive, AdaptiveMin: *adaptiveMin, AdaptiveMax: *adaptiveMax,
	}
	ran := false
	if want("fig12") {
		ran = true
		fig, err := harness.Fig12(ctx, base, *runs)
		if err != nil {
			return err
		}
		if *jsonOut {
			doc.Cells = append(doc.Cells, fig.JSONCells("fig12")...)
		} else {
			fmt.Fprintln(out, fig.Render())
		}
	}
	if want("fig13") {
		ran = true
		fig, err := harness.Fig13(ctx, base, *runs)
		if err != nil {
			return err
		}
		if *jsonOut {
			doc.Cells = append(doc.Cells, fig.JSONCells("fig13")...)
		} else {
			fmt.Fprintln(out, fig.Render())
		}
	}
	if want("fig14") {
		ran = true
		fig, err := harness.Fig14(ctx, base, *runs)
		if err != nil {
			return err
		}
		if *jsonOut {
			doc.Cells = append(doc.Cells, fig.JSONCells()...)
		} else {
			fmt.Fprintln(out, fig.Render())
		}
	}
	if want("size") {
		ran = true
		rep, err := harness.Size(ctx, base)
		if err != nil {
			return err
		}
		if *jsonOut {
			doc.Cells = append(doc.Cells, rep.JSONCells()...)
		} else {
			fmt.Fprintln(out, rep.Render())
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want fig12, fig13, fig14, size or all)", *experiment)
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	return nil
}

// benchDoc is the top-level document -json emits: the invocation's resolved
// configuration plus every measured cell.
type benchDoc struct {
	Experiment  string             `json:"experiment"`
	Runs        int                `json:"runs"`
	Scale       int                `json:"scale"`
	Parallelism int                `json:"parallelism"`
	Batch       int                `json:"batch"`
	Fuse        bool               `json:"fuse"`
	Vectorize   bool               `json:"vectorize"`
	Adaptive    bool               `json:"adaptive"`
	AdaptiveMin int                `json:"adaptive_min,omitempty"`
	AdaptiveMax int                `json:"adaptive_max,omitempty"`
	Codec       string             `json:"codec"`
	Cells       []harness.CellJSON `json:"cells"`
}

// reportPlans inspects the physical plan of every (query, mode) cell the
// experiment will run. Under -v it prints each plan; when -fuse was asked
// for explicitly but a cell's topology gives the planner nothing to rewrite
// (no fusible stateless chain, no hoistable prefix), it prints a note so the
// flag never silently does nothing.
func reportPlans(out *os.File, base harness.Options, experiment string, verbose, warnUnfusible bool) error {
	if !verbose && !warnUnfusible {
		return nil
	}
	// Cover exactly the deployments the experiment selection will run:
	// fig13 is inter-process, fig12/fig14/size are intra, "all" runs both.
	var deployments []harness.Deployment
	if experiment != "fig13" {
		deployments = append(deployments, harness.Intra)
	}
	if experiment == "fig13" || experiment == "all" {
		deployments = append(deployments, harness.Inter)
	}
	for _, deployment := range deployments {
		for _, q := range harness.Queries {
			for _, m := range harness.Modes {
				o := base
				o.Query, o.Mode, o.Deployment = q, m, deployment
				info, err := harness.Explain(o)
				if err != nil {
					return fmt.Errorf("plan %s/%s: %w", q, m, err)
				}
				if verbose {
					fmt.Fprintf(out, "--- %s/%s (%s) ---\n%s\n", q, m, deployment, info.Text)
				}
				if warnUnfusible && info.FusedChains == 0 && info.HoistedPrefixes == 0 {
					fmt.Fprintf(out, "note: -fuse requested, but %s/%s (%s, parallelism %d) has no fusible stateless chain or hoistable prefix; the plan is unchanged\n",
						q, m, deployment, o.Parallelism)
				}
			}
		}
	}
	return nil
}

// resolveParallelism maps the -parallelism flag to a shard count: 1 keeps
// serial execution, n > 1 selects n shards, and 0 is the ROADMAP's auto
// mode — choose from the machine's CPU count, leaving headroom below 2
// cores where sharding only adds partition/fan-in overhead. Negative values
// are rejected.
func resolveParallelism(p int) (int, error) {
	if p < 0 {
		return 0, fmt.Errorf("parallelism must be >= 0 (1 = serial, 0 = auto), got %d", p)
	}
	if p != 0 {
		return p, nil
	}
	if n := runtime.NumCPU(); n >= 2 {
		return n, nil
	}
	return 1, nil
}

// lrConfig scales the Linear Road workload: more cars and longer runs keep
// the alert density realistic while increasing volume.
func lrConfig(scale int) linearroad.Config {
	return linearroad.Config{
		Cars:          100 * scale,
		Steps:         600,
		StopEvery:     10,
		StopDuration:  6,
		AccidentEvery: 40,
		Seed:          42,
	}
}

// sgConfig scales the Smart Grid workload.
func sgConfig(scale int) smartgrid.Config {
	return smartgrid.Config{
		Meters:         100 * scale,
		Days:           60,
		BlackoutEvery:  7,
		BlackoutMeters: smartgrid.BlackoutMeterThreshold + 1,
		AnomalyEvery:   5,
		AnomalyValue:   300,
		Seed:           7,
	}
}

// csConfig scales the clickstream workload: more users keeps the hot-session
// density fixed while increasing volume.
func csConfig(scale int) clickstream.Config {
	return clickstream.Config{
		Users:    100 * scale,
		Windows:  120,
		HotEvery: 5,
		Pages:    200,
		Seed:     23,
	}
}
