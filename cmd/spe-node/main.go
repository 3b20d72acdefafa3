// Command spe-node runs one SPE instance of a distributed GeneaLog
// deployment over real TCP, reproducing the paper's three-node Odroid
// testbed with three OS processes (possibly on three machines).
//
// Instance roles follow the paper's Figs. 7, 9C, 10C, 11C:
//
//	role 1 — Source + query stage 1 (+ SU per delivering stream under GL)
//	role 2 — query stage 2 + Sink (+ SU producing the derived stream)
//	role 3 — provenance node (GL: MU + collector; BL: source store + join)
//
// Every directed link uses one TCP connection with a fixed port offset from
// -base-port on the receiving node's host. Start role 3 first, then role 2,
// then role 1 (senders retry while listeners come up, so any order works in
// practice).
//
// Links use the binary codec unless -codec gob is given; every role of a
// deployment must run the same codec (and the same -adaptive mode), or the
// receiving side cannot decode what the sending side frames.
//
// Example (three shells, one query):
//
//	spe-node -query Q1 -mode GL -role 3 -base-port 7400
//	spe-node -query Q1 -mode GL -role 2 -base-port 7400 -spe3 127.0.0.1
//	spe-node -query Q1 -mode GL -role 1 -base-port 7400 -spe2 127.0.0.1 -spe3 127.0.0.1
//
// A fourth role runs a shared provenance store node: `-store-listen` (no
// -role) accepts ingestion from any number of deployments' provenance nodes
// (role 3 with `-store`) and answers live Backward/Forward/Stats queries for
// the merged store (cmd/genealog-prov -connect):
//
//	spe-node -store-listen :7432 -store-path prov.glprov
//	spe-node -query Q1 -mode GL -role 3 -base-port 7400 -store 127.0.0.1:7432
//
// The store node runs until SIGINT/SIGTERM (or -timeout) and then flushes
// and closes its file log; a restarted node reopens the log — keeping every
// acknowledged entry — and continues serving and ingesting.
//
// Every role — SPE instances and the store node alike — additionally serves
// live telemetry with `-telemetry-listen addr`: Prometheus text at /metrics,
// a JSON snapshot at /telemetry.json (the feed of cmd/genealog-top), pprof
// at /debug/pprof and expvar at /debug/vars. SPE roles expose per-operator
// throughput, queue occupancy and watermark lag plus per-link byte gauges;
// the store node exposes the merged store's ingest/retire/dedup counters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"genealog/internal/baseline"
	"genealog/internal/clickstream"
	"genealog/internal/core"
	"genealog/internal/harness"
	"genealog/internal/linearroad"
	"genealog/internal/provenance"
	"genealog/internal/provstore"
	"genealog/internal/smartgrid"
	"genealog/internal/telemetry"
	"genealog/internal/transport"
)

// Port offsets from -base-port, per link. The listener is always the
// receiving role.
const (
	portMain    = 0  // role 2 listens: main stream i at base+portMain+i
	portU1      = 10 // role 3 listens: upstream unfolded stream i
	portDerived = 20 // role 3 listens: derived stream
	portSources = 30 // role 3 listens: BL source stream
	portSinks   = 31 // role 3 listens: BL annotated sink stream
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spe-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spe-node", flag.ContinueOnError)
	queryID := fs.String("query", "Q1", "Q1 | Q2 | Q3 | Q4 | Q5")
	mode := fs.String("mode", "GL", "NP | GL | BL")
	role := fs.Int("role", 0, "SPE instance role: 1, 2 or 3")
	basePort := fs.Int("base-port", 7400, "base TCP port for the deployment's links")
	spe2 := fs.String("spe2", "127.0.0.1", "host of SPE instance 2 (used by role 1)")
	spe3 := fs.String("spe3", "127.0.0.1", "host of SPE instance 3 (used by roles 1 and 2)")
	scale := fs.Int("scale", 1, "workload scale multiplier")
	codec := fs.String("codec", "binary", "link codec: binary | gob (all roles must agree)")
	adaptive := fs.Bool("adaptive", false, "adaptive batch sizing: an AIMD controller resizes this instance's stream batch sizes live (all roles must agree so link framing matches)")
	adaptiveMax := fs.Int("adaptive-max", harness.DefaultAdaptiveMaxBatch, "adaptive batch sizing: largest batch size the controller may grow to")
	storeAddr := fs.String("store", "", "role 3: stream assembled provenance to the store node at this address (spe-node -store-listen)")
	storeListen := fs.String("store-listen", "", "run as a shared provenance store node on this address instead of an SPE role")
	storePath := fs.String("store-path", "", "store node: durable file log path (created, or reopened for appends; empty = in-memory)")
	storeHorizon := fs.Int64("store-horizon", 0, "store node: retention horizon recorded in a newly created file log")
	telemetryListen := fs.String("telemetry-listen", "", "serve /metrics, /telemetry.json, /debug/pprof and /debug/vars on this address (empty = off)")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall deadline (a store node defaults to none: it serves until SIGINT/SIGTERM)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	timeoutExplicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "timeout" {
			timeoutExplicit = true
		}
	})
	if *storeListen != "" {
		if *role != 0 {
			return fmt.Errorf("-store-listen runs a store node, not an SPE role; drop -role %d", *role)
		}
		// A serving role has no natural end: without an explicit -timeout the
		// node runs until SIGINT/SIGTERM instead of silently exiting after
		// the SPE roles' default deadline.
		ctx := context.Background()
		if timeoutExplicit {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		return runStoreNode(ctx, *storeListen, *storePath, *storeHorizon, *telemetryListen)
	}
	if *storePath != "" || *storeHorizon != 0 {
		return errors.New("-store-path and -store-horizon configure a store node; they need -store-listen")
	}
	if *storeAddr != "" && *role != 3 {
		return fmt.Errorf("-store streams the provenance node's ingestion; it needs -role 3, not %d", *role)
	}

	o := harness.Options{
		Query:      harness.QueryID(*queryID),
		Mode:       harness.Mode(*mode),
		Deployment: harness.Inter,
		LR: linearroad.Config{
			Cars: 50 * *scale, Steps: 300, StopEvery: 10, StopDuration: 6,
			AccidentEvery: 40, Seed: 42,
		},
		SG: smartgrid.Config{
			Meters: 50 * *scale, Days: 30, BlackoutEvery: 7,
			BlackoutMeters: smartgrid.BlackoutMeterThreshold + 1,
			AnomalyEvery:   5, AnomalyValue: 300, Seed: 7,
		},
		CS: clickstream.Config{
			Users: 50 * *scale, Windows: 60, HotEvery: 5,
			Pages: 100, Seed: 23,
		},
		AdaptiveBatch:    *adaptive,
		AdaptiveMaxBatch: *adaptiveMax,
	}
	nMain, err := harness.MainLinkCount(o.Query)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var linkOpts []transport.LinkOption
	switch *codec {
	case "binary":
	case "gob":
		linkOpts = append(linkOpts, transport.WithCodec(transport.GobCodec{}))
	default:
		return fmt.Errorf("unknown codec %q (want binary or gob)", *codec)
	}
	var telem *telemetry.Registry
	if *telemetryListen != "" {
		telem = telemetry.NewRegistry()
		o.Telemetry = telem
		tsrv, err := telem.Listen(*telemetryListen)
		if err != nil {
			return err
		}
		defer tsrv.Close()
		fmt.Printf("telemetry on http://%s (/metrics, /telemetry.json, /debug/pprof)\n", tsrv.Addr())
		// Counted links feed the per-link byte gauges below.
		linkOpts = append(linkOpts, transport.WithCounting())
	}

	addr := func(host string, off int) string { return fmt.Sprintf("%s:%d", host, *basePort+off) }
	observe := func(l *transport.Link) *transport.Link {
		if telem != nil && l.Count != nil {
			count := l.Count
			telem.RegisterGauge("genealog_link_bytes",
				[]telemetry.Label{{Name: "link", Value: l.Name}},
				func() float64 { return float64(count.Bytes()) })
		}
		return l
	}
	listen := func(name string, off int) (*transport.Link, error) {
		l, err := transport.Listen(ctx, addr("0.0.0.0", off), append(linkOpts, transport.WithName(name))...)
		if err != nil {
			return nil, err
		}
		return observe(l), nil
	}
	dial := func(name, host string, off int) (*transport.Link, error) {
		l, err := transport.Dial(ctx, addr(host, off), append(linkOpts, transport.WithName(name))...)
		if err != nil {
			return nil, err
		}
		return observe(l), nil
	}

	links := harness.InterLinks{}
	hooks := harness.InterHooks{}
	begin := time.Now()
	var srcTuples, sinkTuples, provResults int

	switch *role {
	case 1:
		for i := 0; i < nMain; i++ {
			l, err := dial(fmt.Sprintf("main-%d", i), *spe2, portMain+i)
			if err != nil {
				return err
			}
			links.Main = append(links.Main, l)
		}
		switch o.Mode {
		case harness.ModeGL:
			for i := 0; i < nMain; i++ {
				l, err := dial(fmt.Sprintf("u1-%d", i), *spe3, portU1+i)
				if err != nil {
					return err
				}
				links.U1 = append(links.U1, l)
			}
		case harness.ModeBL:
			if links.Sources, err = dial("sources", *spe3, portSources); err != nil {
				return err
			}
		}
		hooks.OnSourceEmit = func(core.Tuple) { srcTuples++ }
		q, err := harness.BuildSPE1(o, links, hooks)
		if err != nil {
			return err
		}
		if err := q.Run(ctx); err != nil {
			return err
		}
		fmt.Printf("spe1: %d source tuples shipped in %v\n", srcTuples, time.Since(begin).Round(time.Millisecond))
	case 2:
		for i := 0; i < nMain; i++ {
			l, err := listen(fmt.Sprintf("main-%d", i), portMain+i)
			if err != nil {
				return err
			}
			links.Main = append(links.Main, l)
		}
		switch o.Mode {
		case harness.ModeGL:
			if links.Derived, err = dial("derived", *spe3, portDerived); err != nil {
				return err
			}
		case harness.ModeBL:
			if links.Sinks, err = dial("sinks", *spe3, portSinks); err != nil {
				return err
			}
		}
		hooks.OnSinkTuple = func(t core.Tuple) {
			sinkTuples++
			fmt.Printf("sink tuple ts=%d\n", t.Timestamp())
		}
		q, err := harness.BuildSPE2(o, links, hooks)
		if err != nil {
			return err
		}
		if err := q.Run(ctx); err != nil {
			return err
		}
		fmt.Printf("spe2: %d sink tuples in %v\n", sinkTuples, time.Since(begin).Round(time.Millisecond))
	case 3:
		if o.Mode == harness.ModeNP {
			return fmt.Errorf("NP deployments have no provenance node (role 3)")
		}
		switch o.Mode {
		case harness.ModeGL:
			for i := 0; i < nMain; i++ {
				l, err := listen(fmt.Sprintf("u1-%d", i), portU1+i)
				if err != nil {
					return err
				}
				links.U1 = append(links.U1, l)
			}
			if links.Derived, err = listen("derived", portDerived); err != nil {
				return err
			}
		case harness.ModeBL:
			if links.Sources, err = listen("sources", portSources); err != nil {
				return err
			}
			if links.Sinks, err = listen("sinks", portSinks); err != nil {
				return err
			}
			hooks.Store = baseline.NewStore()
		}
		hooks.OnProvenance = func(r provenance.Result) {
			provResults++
			fmt.Printf("provenance: sink ts=%d <- %d source tuple(s)\n", r.Sink.Timestamp(), len(r.Sources))
		}
		var remoteStore *provstore.Store
		if *storeAddr != "" {
			hz, err := harness.StoreHorizon(o.Query)
			if err != nil {
				return err
			}
			if remoteStore, err = provstore.Connect(ctx, *storeAddr, provstore.Options{Horizon: hz}); err != nil {
				return err
			}
			hooks.ProvStore = remoteStore
			if telem != nil {
				telem.RegisterStore("provstore", func() telemetry.StoreStats {
					return storeTelemetry(remoteStore.Stats())
				})
			}
		}
		q, err := harness.BuildSPE3(o, links, hooks)
		if err != nil {
			return err
		}
		runErr := q.Run(ctx)
		if remoteStore != nil {
			// Flush the final batch and watermark; a store error fails the
			// node like any other.
			if cerr := remoteStore.Close(); runErr == nil {
				runErr = cerr
			}
		}
		if runErr != nil {
			return runErr
		}
		if remoteStore != nil {
			ss := remoteStore.Stats()
			fmt.Printf("spe3: streamed %d sink entries (%d deduplicated sources) to store node %s\n",
				ss.Sinks, ss.Sources, *storeAddr)
		}
		fmt.Printf("spe3: %d provenance results in %v\n", provResults, time.Since(begin).Round(time.Millisecond))
	default:
		return fmt.Errorf("role must be 1, 2 or 3 (got %d)", *role)
	}
	return nil
}

// runStoreNode runs the shared provenance store node: a provstore.Server
// over an in-memory backend or a durable file log (created fresh, or — after
// a crash or restart — reopened for appends with every acknowledged entry
// intact). It serves until SIGINT/SIGTERM or the deadline, then flushes and
// closes the backend.
func runStoreNode(ctx context.Context, listen, path string, horizon int64, telemetryListen string) error {
	var (
		be  provstore.Backend
		err error
	)
	switch {
	case path == "":
		be = provstore.NewMemoryBackend(horizon)
	default:
		if _, statErr := os.Stat(path); statErr == nil {
			be, err = provstore.OpenFileLogAppend(path)
		} else {
			be, err = provstore.CreateFileLog(path, horizon)
		}
		if err != nil {
			return err
		}
	}
	srv := provstore.NewServer(be)
	addr, err := srv.Listen(listen)
	if err != nil {
		return err
	}
	if telemetryListen != "" {
		telem := telemetry.NewRegistry()
		telem.RegisterStore("store-node", func() telemetry.StoreStats {
			return storeTelemetry(srv.Stats())
		})
		tsrv, err := telem.Listen(telemetryListen)
		if err != nil {
			return err
		}
		defer tsrv.Close()
		fmt.Printf("telemetry on http://%s (/metrics, /telemetry.json, /debug/pprof)\n", tsrv.Addr())
	}
	backing := "in-memory"
	if path != "" {
		backing = "file log " + path
	}
	fmt.Printf("store node listening on %s (%s)\n", addr, backing)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-ctx.Done():
	}
	// Close first — it drains in-flight frames — then snapshot, so the
	// summary counts everything the node acknowledged (Stats keeps working
	// on the in-memory index after Close).
	err = srv.Close()
	ss := srv.Stats()
	fmt.Printf("store node: %d sink entries, %d source entries (referenced %d times), %d bytes\n",
		ss.Sinks, ss.Sources, ss.SourceRefs, ss.Bytes)
	return err
}

// storeTelemetry converts provstore accounting into the telemetry exposition
// shape (the telemetry package cannot import provstore).
func storeTelemetry(s provstore.Stats) telemetry.StoreStats {
	return telemetry.StoreStats{
		Sinks:           s.Sinks,
		Sources:         s.Sources,
		SourceRefs:      s.SourceRefs,
		LiveSources:     s.LiveSources,
		RetiredSources:  s.RetiredSources,
		PeakLiveSources: s.PeakLiveSources,
		ReEncoded:       s.ReEncoded,
		Bytes:           s.Bytes,
		Watermark:       s.Watermark,
		Horizon:         s.Horizon,
		Instances:       s.Instances,
		MinWatermark:    s.MinWatermark,
		DedupRatio:      s.DedupRatio(),
	}
}
