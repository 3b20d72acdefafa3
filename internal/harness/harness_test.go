package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"genealog/internal/clickstream"
	"genealog/internal/core"
	"genealog/internal/linearroad"
	"genealog/internal/provenance"
	"genealog/internal/smartgrid"
)

// testOptions returns a small, fast workload configuration.
func testOptions() Options {
	return Options{
		LR: linearroad.Config{
			Cars: 10, Steps: 80, StopEvery: 7, StopDuration: 6,
			AccidentEvery: 16, Seed: 1,
		},
		SG: smartgrid.Config{
			Meters: 12, Days: 8, BlackoutEvery: 3, BlackoutMeters: 8,
			AnomalyEvery: 3, AnomalyValue: 300, Seed: 2,
		},
		CS: clickstream.Config{
			Users: 8, Windows: 6, HotEvery: 5, Pages: 10, Seed: 3,
		},
		MemSampleEvery: time.Millisecond,
	}
}

func run(t *testing.T, q QueryID, m Mode, d Deployment) Result {
	t.Helper()
	o := testOptions()
	o.Query, o.Mode, o.Deployment = q, m, d
	r, err := Run(context.Background(), o)
	if err != nil {
		t.Fatalf("Run(%s,%s,%s): %v", q, m, d, err)
	}
	return r
}

// expectedGraphSizes maps each query to the per-sink contribution graph
// size with the test workload (fixed injections): the Figs. 2/9B/10B/11B
// shapes.
var expectedGraphSizes = map[QueryID]int64{
	Q1: int64(linearroad.StopReports),                           // 4
	Q2: int64(linearroad.AccidentCars * linearroad.StopReports), // 8
	Q3: int64(8 * smartgrid.HoursPerDay),                        // 192
	Q4: int64(smartgrid.HoursPerDay + 1),                        // 24 in the paper; 25 here
	Q5: int64(clickstream.HotSessionClicks),                     // 6
}

func TestGraphShapes(t *testing.T) {
	for _, q := range Queries {
		t.Run(string(q), func(t *testing.T) {
			r := run(t, q, ModeGL, Intra)
			if r.SinkTuples == 0 {
				t.Fatal("no sink tuples produced")
			}
			if r.ProvResults != r.SinkTuples {
				t.Fatalf("prov results %d != sink tuples %d", r.ProvResults, r.SinkTuples)
			}
			want := expectedGraphSizes[q] * r.ProvResults
			if r.ProvSources != want {
				t.Fatalf("prov sources = %d, want %d (%d per sink tuple)",
					r.ProvSources, want, expectedGraphSizes[q])
			}
		})
	}
}

// runDigest runs one configuration and digests every assembled provenance
// result as "sink payload <- sorted source payloads", sorted: comparable
// across modes and deployments, whose result order and IDs differ.
func runDigest(t *testing.T, o Options) (Result, string) {
	t.Helper()
	var mu sync.Mutex
	var lines []string
	o.OnProvenance = func(r provenance.Result) {
		srcs := make([]string, len(r.Sources))
		for i, s := range r.Sources {
			srcs[i] = payload(t, s)
		}
		sort.Strings(srcs)
		line := payload(t, r.Sink) + " <- " + strings.Join(srcs, "|")
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r, err := Run(ctx, o)
	if err != nil {
		t.Fatalf("Run(%s,%s,%s): %v", o.Query, o.Mode, o.Deployment, err)
	}
	sort.Strings(lines)
	return r, strings.Join(lines, "\n")
}

// checkModesAgree runs NP, GL and BL on one configuration: provenance capture
// must not change the query semantics (identical sink counts), and GL's
// contribution sets must equal BL's result by result. BL clones at every
// Multiplex, so it is the clone-everything reference for GL, which shares an
// object across branches wherever at most one of them can write it. It
// returns the NP and BL results.
func checkModesAgree(t *testing.T, o Options) (np, bl Result) {
	t.Helper()
	o.Mode = ModeNP
	np, _ = runDigest(t, o)
	o.Mode = ModeGL
	gl, glDigest := runDigest(t, o)
	o.Mode = ModeBL
	bl, blDigest := runDigest(t, o)
	if np.SinkTuples != gl.SinkTuples || np.SinkTuples != bl.SinkTuples {
		t.Fatalf("sink tuples disagree: NP=%d GL=%d BL=%d",
			np.SinkTuples, gl.SinkTuples, bl.SinkTuples)
	}
	if gl.ProvResults == 0 || gl.ProvSources != bl.ProvSources {
		t.Fatalf("provenance disagrees: GL=%d sources in %d results, BL=%d", gl.ProvSources, gl.ProvResults, bl.ProvSources)
	}
	if glDigest != blDigest {
		t.Fatalf("GL and BL contribution sets diverge:\n--- GL ---\n%s\n--- BL ---\n%s", glDigest, blDigest)
	}
	return np, bl
}

// TestModesAgreeOnQueryOutput: in one process, NP, GL and BL agree on the
// sink tuples, and GL and BL on every result's contribution set.
func TestModesAgreeOnQueryOutput(t *testing.T) {
	for _, q := range Queries {
		t.Run(string(q), func(t *testing.T) {
			o := testOptions()
			o.Query, o.Deployment = q, Intra
			checkModesAgree(t, o)
		})
	}
}

// TestModesAgreeShardedBatched: the same agreement with every keyed stateful
// operator at parallelism 4 and batches of 64, where shard lanes, hoisted
// prefixes and fused suffixes carry the shared objects.
func TestModesAgreeShardedBatched(t *testing.T) {
	for _, d := range []Deployment{Intra, Inter} {
		t.Run(d.String(), func(t *testing.T) {
			o := testOptions()
			o.Query, o.Deployment = Q4, d
			o.Parallelism, o.BatchSize = 4, 64
			checkModesAgree(t, o)
		})
	}
}

// strictChecks turns GL's single-writer checks on for the rest of the test
// (see core.SetStrict).
func strictChecks(t *testing.T) {
	was := core.SetStrict(true)
	t.Cleanup(func() { core.SetStrict(was) })
}

// TestInterGridStrict runs the inter-process grid (Q1–Q5 × batch 1/64 ×
// parallelism 1/4, NP, GL and BL each) with GL's strict single-writer
// checks on. Every Send and the su1 Multiplexes in front of them share their
// objects with the SU's unfold branch: a Send that wrote an ID, or an N
// written twice, panics, and under -race a write to a shared object races
// with the sibling branch's reads. GL's contribution sets must equal BL's,
// and must not change with the batch size or the parallelism.
func TestInterGridStrict(t *testing.T) {
	strictChecks(t)
	for _, q := range Queries {
		var ref string
		for _, batch := range []int{1, 64} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/b%d/p%d", q, batch, par), func(t *testing.T) {
					o := testOptions()
					o.Query, o.Deployment = q, Inter
					o.BatchSize, o.Parallelism = batch, par
					checkModesAgree(t, o)
					o.Mode = ModeGL
					_, digest := runDigest(t, o)
					if ref == "" {
						ref = digest
					} else if digest != ref {
						t.Fatalf("GL provenance at batch %d, parallelism %d differs from batch 1, parallelism 1", batch, par)
					}
				})
			}
		}
	}
}

// TestRemoteOriginPayloadNotShipped: the binary codec ships a REMOTE
// origin's ID but not its payload, since the MU replaces every REMOTE
// origin with an upstream record's. On Q1–Q5 the collector's results, sink
// and sources payload for payload, equal those of the gob codec, which
// ships the payload, and of the intra-process deployment.
func TestRemoteOriginPayloadNotShipped(t *testing.T) {
	for _, q := range Queries {
		t.Run(string(q), func(t *testing.T) {
			o := testOptions()
			o.Query, o.Mode, o.Deployment = q, ModeGL, Intra
			_, intra := runDigest(t, o)
			o.Deployment = Inter
			_, binary := runDigest(t, o)
			o.UseGobCodec = true
			_, gob := runDigest(t, o)
			if intra == "" {
				t.Fatal("no provenance results")
			}
			if binary != gob || binary != intra {
				t.Fatalf("results differ:\n--- binary ---\n%s\n--- gob ---\n%s\n--- intra ---\n%s", binary, gob, intra)
			}
		})
	}
}

// TestInterMatchesIntra: the distributed deployment must produce the same
// alerts and the same provenance volume as the single-instance one.
func TestInterMatchesIntra(t *testing.T) {
	for _, q := range Queries {
		t.Run(string(q), func(t *testing.T) {
			intra := run(t, q, ModeGL, Intra)
			inter := run(t, q, ModeGL, Inter)
			if intra.SinkTuples != inter.SinkTuples {
				t.Fatalf("sink tuples: intra=%d inter=%d", intra.SinkTuples, inter.SinkTuples)
			}
			if intra.ProvResults != inter.ProvResults {
				t.Fatalf("prov results: intra=%d inter=%d", intra.ProvResults, inter.ProvResults)
			}
			if intra.ProvSources != inter.ProvSources {
				t.Fatalf("prov sources: intra=%d inter=%d", intra.ProvSources, inter.ProvSources)
			}
			if inter.NetBytes == 0 {
				t.Fatal("inter-process run must report link traffic")
			}
			if len(inter.TraversalAvgMsPerSPE) != 2 {
				t.Fatalf("want per-SPE traversal stats, got %v", inter.TraversalAvgMsPerSPE)
			}
		})
	}
}

// TestInterModesAgree: across three SPE instances, NP, GL and BL agree on
// the sink tuples, and GL and BL on every result's contribution set.
func TestInterModesAgree(t *testing.T) {
	for _, q := range Queries {
		t.Run(string(q), func(t *testing.T) {
			o := testOptions()
			o.Query, o.Deployment = q, Inter
			np, bl := checkModesAgree(t, o)
			// BL ships the whole source stream on top of the query's own
			// traffic.
			if bl.NetBytes <= np.NetBytes {
				t.Fatalf("BL traffic (%d) must exceed NP traffic (%d)", bl.NetBytes, np.NetBytes)
			}
			// The BL >> GL traffic gap needs rare alerts relative to the
			// stream volume; TestBLTrafficDominatesOnSparseAlerts covers it
			// with a sparse workload.
		})
	}
}

// TestBLTrafficDominatesOnSparseAlerts reproduces the paper's inter-process
// network claim: when alerts are rare relative to the source volume, GL
// ships only the (tiny) provenance data while BL ships the entire source
// stream.
func TestBLTrafficDominatesOnSparseAlerts(t *testing.T) {
	o := testOptions()
	o.Query, o.Deployment = Q1, Inter
	o.LR = linearroad.Config{
		Cars: 60, Steps: 300, StopEvery: 60, StopDuration: 4, Seed: 5,
	}
	o.Mode = ModeGL
	gl, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Mode = ModeBL
	bl, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if gl.SinkTuples == 0 || gl.SinkTuples != bl.SinkTuples {
		t.Fatalf("sink tuples: GL=%d BL=%d", gl.SinkTuples, bl.SinkTuples)
	}
	if bl.NetBytes < 2*gl.NetBytes {
		t.Fatalf("BL traffic (%d) must dwarf GL traffic (%d) on sparse alerts",
			bl.NetBytes, gl.NetBytes)
	}
}

func TestBLStoreRetainsEverything(t *testing.T) {
	r := run(t, Q1, ModeBL, Intra)
	if r.StoreBytes == 0 {
		t.Fatal("BL store must retain source tuples")
	}
	// The store holds every source tuple: bytes = tuples * payload size.
	want := r.SourceTuples * int64((&linearroad.PositionReport{}).ApproxBytes())
	if r.StoreBytes != want {
		t.Fatalf("store bytes = %d, want %d (all source tuples)", r.StoreBytes, want)
	}
}

func TestProvenanceVolumeSmallerThanSource(t *testing.T) {
	// The test workload is tiny and alert-dense, so the ratio is far above
	// the paper's 0.003%-0.5% (which the Size report reproduces on realistic
	// volumes); here we only check it is positive and below the source
	// volume.
	for _, q := range Queries {
		r := run(t, q, ModeGL, Intra)
		if ratio := r.ProvRatio(); ratio <= 0 || ratio >= 1 {
			t.Fatalf("%s provenance ratio = %f, want in (0,1)", q, ratio)
		}
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Options{
		{Query: "Q9", Mode: ModeGL, Deployment: Intra},
		{Query: Q1, Mode: "XX", Deployment: Intra},
		{Query: Q1, Mode: ModeGL, Deployment: 9},
	}
	for i, o := range bad {
		if _, err := Run(context.Background(), o); err == nil {
			t.Errorf("case %d: invalid options must fail", i)
		}
	}
}

func TestRepeatSummaries(t *testing.T) {
	o := testOptions()
	o.Query, o.Mode, o.Deployment = Q1, ModeGL, Intra
	s, err := Repeat(context.Background(), o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Throughput.N != 2 || s.Throughput.Mean <= 0 {
		t.Fatalf("throughput summary = %+v", s.Throughput)
	}
	if s.Last.SinkTuples == 0 {
		t.Fatal("missing last-run result")
	}
}

func TestFigureRendering(t *testing.T) {
	o := testOptions()
	// Shrink further: rendering correctness, not measurement quality.
	o.LR.Steps = 40
	o.SG.Days = 4
	fig, err := Fig12(context.Background(), o, 1)
	if err != nil {
		t.Fatal(err)
	}
	text := fig.Render()
	for _, want := range []string{"Q1", "Q4", "Throughput", "Max memory", "GL", "BL"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Fig12 rendering missing %q:\n%s", want, text)
		}
	}

	f14, err := Fig14(context.Background(), o, 1)
	if err != nil {
		t.Fatal(err)
	}
	text = f14.Render()
	if !strings.Contains(text, "Intra-process") || !strings.Contains(text, "SPE1") {
		t.Fatalf("Fig14 rendering incomplete:\n%s", text)
	}

	size, err := Size(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(size.Render(), "ratio") {
		t.Fatal("size report rendering incomplete")
	}
}

func TestThrottledInterRun(t *testing.T) {
	o := testOptions()
	o.Query, o.Mode, o.Deployment = Q1, ModeGL, Inter
	o.LR.Steps = 40
	o.ThrottleBytesPerSec = 50e6
	r, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if r.SinkTuples == 0 {
		t.Fatal("throttled run produced no output")
	}
}

func TestSourceRatePacing(t *testing.T) {
	o := testOptions()
	o.Query, o.Mode, o.Deployment = Q1, ModeGL, Intra
	o.LR.Steps = 20
	o.SourceRate = 5000
	r, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	// 10 cars x 20 steps at 5k t/s takes ~40 ms; the measured rate must sit
	// near the pacing target rather than the unthrottled hundreds of
	// thousands per second.
	if r.ThroughputTPS > 12_000 {
		t.Fatalf("paced throughput = %f, want <= ~5k within noise", r.ThroughputTPS)
	}
}

// TestInterLargeScaleNoDeadlock is the regression test for the watermark
// heartbeats: at this scale Q3's upstream unfolded stream (every daily
// aggregate unfolds into 24 records) outgrows the link buffering between two
// blackout alerts, which deadlocked the deployment before operators
// advertised watermark progress on sparse streams.
func TestInterLargeScaleNoDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-megabyte deployment")
	}
	o := testOptions()
	o.Query, o.Mode, o.Deployment = Q3, ModeGL, Inter
	o.SG = smartgrid.Config{
		Meters: 60, Days: 40, BlackoutEvery: 7,
		BlackoutMeters: smartgrid.BlackoutMeterThreshold + 1,
		AnomalyEvery:   5, AnomalyValue: 300, Seed: 7,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.SinkTuples == 0 || r.ProvResults != r.SinkTuples {
		t.Fatalf("large-scale inter run: sink=%d prov=%d", r.SinkTuples, r.ProvResults)
	}

	o.Query = Q4
	r, err = Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.SinkTuples == 0 || r.ProvResults != r.SinkTuples {
		t.Fatalf("Q4 large-scale inter run: sink=%d prov=%d", r.SinkTuples, r.ProvResults)
	}
}

// TestInterBinaryCodecMatchesGob: the binary codec must be a drop-in
// replacement for gob on every query and mode.
func TestInterBinaryCodecMatchesGob(t *testing.T) {
	for _, q := range Queries {
		for _, m := range Modes {
			t.Run(string(q)+"/"+string(m), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				o := testOptions()
				o.Query, o.Mode, o.Deployment = q, m, Inter
				bin, err := Run(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				o.UseGobCodec = true
				gob, err := Run(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				if gob.SinkTuples != bin.SinkTuples {
					t.Fatalf("sink tuples: gob=%d binary=%d", gob.SinkTuples, bin.SinkTuples)
				}
				if gob.ProvSources != bin.ProvSources {
					t.Fatalf("prov sources: gob=%d binary=%d", gob.ProvSources, bin.ProvSources)
				}
				if m != ModeNP && bin.NetBytes >= gob.NetBytes {
					t.Fatalf("binary codec (%d B) should beat gob (%d B)", bin.NetBytes, gob.NetBytes)
				}
			})
		}
	}
}

// TestInterBatchedMatchesUnbatched: batched stream transport — including
// the batch wire frames on every inter-process link — must reproduce the
// unbatched deployment's sink tuples and provenance exactly, under both
// codecs.
func TestInterBatchedMatchesUnbatched(t *testing.T) {
	for _, q := range Queries {
		for _, binary := range []bool{false, true} {
			name := string(q) + "/gob"
			if binary {
				name = string(q) + "/binary"
			}
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				o := testOptions()
				o.Query, o.Mode, o.Deployment = q, ModeGL, Inter
				o.UseGobCodec = !binary
				plain, err := Run(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				o.BatchSize = 64
				batched, err := Run(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				if plain.SinkTuples != batched.SinkTuples {
					t.Fatalf("sink tuples: batch 1 = %d, batch 64 = %d", plain.SinkTuples, batched.SinkTuples)
				}
				if plain.ProvResults != batched.ProvResults || plain.ProvSources != batched.ProvSources {
					t.Fatalf("provenance: batch 1 = %d/%d, batch 64 = %d/%d",
						plain.ProvResults, plain.ProvSources, batched.ProvResults, batched.ProvSources)
				}
				if batched.NetBytes == 0 {
					t.Fatal("batched inter-process run must report link traffic")
				}
				// Unbatched links keep the per-tuple wire format, so gob
				// batch frames ship strictly fewer bytes; binary batch
				// frames add one u32 count per batch, largely offset by
				// heartbeat coalescing — allow that 1% of framing slack.
				if batched.NetBytes > plain.NetBytes+plain.NetBytes/100 {
					t.Fatalf("batched links shipped %d B, unbatched %d B (more than 1%% framing slack)", batched.NetBytes, plain.NetBytes)
				}
			})
		}
	}
}
