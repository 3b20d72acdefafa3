package harness

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"genealog/internal/baseline"
	"genealog/internal/clickstream"
	"genealog/internal/core"
	"genealog/internal/linearroad"
	"genealog/internal/ops"
	"genealog/internal/provenance"
	"genealog/internal/query"
	"genealog/internal/smartgrid"
)

// parallelTestOptions is a small but alert-producing workload shared by the
// equivalence runs.
func parallelTestOptions(id QueryID, mode Mode, parallelism int) Options {
	return Options{
		Query:       id,
		Mode:        mode,
		Deployment:  Intra,
		Parallelism: parallelism,
		LR: linearroad.Config{
			Cars: 40, Steps: 120, StopEvery: 8, StopDuration: 6,
			AccidentEvery: 20, Seed: 11,
		},
		SG: smartgrid.Config{
			Meters: 23, Days: 10, BlackoutEvery: 3,
			BlackoutMeters: smartgrid.BlackoutMeterThreshold + 2,
			AnomalyEvery:   4, AnomalyValue: 250, Seed: 5,
		},
		CS: clickstream.Config{
			Users: 20, Windows: 12, HotEvery: 4, Pages: 16, Seed: 9,
		},
		MemSampleEvery: time.Second,
	}
}

// renderPayload renders a workload tuple's payload and event time — never
// its provenance pointers — as a canonical string.
func renderPayload(t core.Tuple) string {
	switch v := t.(type) {
	case *linearroad.PositionReport:
		return fmt.Sprintf("pr/%d/%d/%d/%d", v.Timestamp(), v.CarID, v.Speed, v.Pos)
	case *linearroad.StoppedCar:
		return fmt.Sprintf("sc/%d/%d/%d/%d/%d", v.Timestamp(), v.CarID, v.Count, v.DistinctPos, v.LastPos)
	case *linearroad.AccidentAlert:
		return fmt.Sprintf("aa/%d/%d/%d", v.Timestamp(), v.Pos, v.Count)
	case *smartgrid.MeterReading:
		return fmt.Sprintf("mr/%d/%d/%g", v.Timestamp(), v.MeterID, v.Cons)
	case *smartgrid.DailyCons:
		return fmt.Sprintf("dc/%d/%d/%g", v.Timestamp(), v.MeterID, v.ConsSum)
	case *smartgrid.BlackoutAlert:
		return fmt.Sprintf("ba/%d/%d", v.Timestamp(), v.Count)
	case *smartgrid.AnomalyAlert:
		return fmt.Sprintf("an/%d/%d/%g", v.Timestamp(), v.MeterID, v.ConsDiff)
	case *clickstream.ClickEvent:
		return fmt.Sprintf("ce/%d/%d/%d/%d", v.Timestamp(), v.UserID, v.PageID, v.DwellMs)
	case *clickstream.EngagedClick:
		return fmt.Sprintf("ec/%d/%d/%d", v.Timestamp(), v.UserID, v.PageID)
	case *clickstream.SessionCount:
		return fmt.Sprintf("scnt/%d/%d/%d", v.Timestamp(), v.UserID, v.Clicks)
	default:
		return fmt.Sprintf("%T/%d", t, t.Timestamp())
	}
}

// captured is one run's observable outcome: the sink tuple sequence and the
// traversed provenance of every sink tuple.
type captured struct {
	sinks []string
	prov  []string
}

// captureRun executes one query the way runIntra does — same graph, same
// instrumenter, same provenance plumbing — but records canonical sink and
// provenance strings instead of metrics.
func captureRun(t *testing.T, id QueryID, mode Mode, parallelism, batchSize int) captured {
	return captureRunPlan(t, id, mode, parallelism, batchSize, true, true)
}

// captureRunPlan is captureRun with the physical planner and its columnar
// pass switchable, plus any extra builder options (the adaptive-batching
// equivalence runs pass query.WithAdaptiveBatching).
func captureRunPlan(t *testing.T, id QueryID, mode Mode, parallelism, batchSize int, fusion, vectorize bool, extra ...query.Option) captured {
	t.Helper()
	o := parallelTestOptions(id, mode, parallelism)
	spec, err := specFor(id)
	if err != nil {
		t.Fatal(err)
	}
	gen, _, _ := spec.source(o)

	var store *baseline.Store
	if mode == ModeBL {
		store = baseline.NewStore()
	}
	instr := instrumenterFor(mode, 0, store)

	opts := append([]query.Option{query.WithInstrumenter(instr),
		query.WithBatchSize(batchSize),
		query.WithFusion(fusion),
		query.WithVectorize(vectorize)}, extra...)
	b := query.New(string(id)+"-capture", opts...)
	src := b.AddSource("source", gen)
	last := spec.addWhole(b, src)

	var cap captured
	addProv := func(r provenance.Result) {
		srcs := make([]string, 0, len(r.Sources))
		for _, s := range r.Sources {
			srcs = append(srcs, renderPayload(s))
		}
		sort.Strings(srcs)
		cap.prov = append(cap.prov, renderPayload(r.Sink)+"<-"+strings.Join(srcs, ","))
	}
	switch mode {
	case ModeGL:
		so, u := provenance.AddSU(b, "su", last, provenance.SUConfig{})
		sink := b.AddSink("sink", func(tp core.Tuple) error {
			cap.sinks = append(cap.sinks, renderPayload(tp))
			return nil
		})
		b.Connect(so, sink)
		provenance.AddCollector(b, "prov-sink", u, addProv)
	case ModeBL:
		resolver := baseline.Resolver{Store: store}
		sink := b.AddSink("sink", func(tp core.Tuple) error {
			cap.sinks = append(cap.sinks, renderPayload(tp))
			addProv(provenance.Result{Sink: tp, Sources: resolver.Resolve(tp)})
			return nil
		})
		b.Connect(last, sink)
	default:
		sink := b.AddSink("sink", func(tp core.Tuple) error {
			cap.sinks = append(cap.sinks, renderPayload(tp))
			return nil
		})
		b.Connect(last, sink)
	}

	b.ParallelizeStateful(parallelism)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return cap
}

// sortedCopy returns a sorted copy of ss.
func sortedCopy(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

// TestShardParallelEquivalence is the tentpole's acceptance test: for each
// of Q1-Q4 under NP, GL and BL, execution with Parallelism(4) must yield
// sink output and contribution-graph traversal results identical to
// Parallelism(1). Every query — joins included — must match the serial sink
// sequence byte for byte: keyed joins order same-timestamp matches by
// (timestamp, left key, right key) at every parallelism (ops.ShardJoinCfg).
func TestShardParallelEquivalence(t *testing.T) {
	for _, id := range Queries {
		for _, mode := range Modes {
			t.Run(string(id)+"/"+string(mode), func(t *testing.T) {
				serial := captureRun(t, id, mode, 1, 1)
				if len(serial.sinks) == 0 {
					t.Fatalf("%s/%s: serial run produced no sink tuples; workload too small", id, mode)
				}
				parallel := captureRun(t, id, mode, 4, 1)
				if len(parallel.sinks) != len(serial.sinks) {
					t.Fatalf("sink count differs: parallel %d, serial %d", len(parallel.sinks), len(serial.sinks))
				}
				sser, spar := serial.sinks, parallel.sinks
				for i := range sser {
					if sser[i] != spar[i] {
						t.Fatalf("sink tuple %d differs:\nserial:   %s\nparallel: %s", i, sser[i], spar[i])
					}
				}
				pser, ppar := sortedCopy(serial.prov), sortedCopy(parallel.prov)
				if len(pser) != len(ppar) {
					t.Fatalf("provenance result count differs: parallel %d, serial %d", len(ppar), len(pser))
				}
				for i := range pser {
					if pser[i] != ppar[i] {
						t.Fatalf("provenance result %d differs:\nserial:   %s\nparallel: %s", i, pser[i], ppar[i])
					}
				}
				if mode != ModeNP && len(serial.prov) == 0 {
					t.Fatalf("%s/%s: no provenance results; workload too small", id, mode)
				}
			})
		}
	}
}

// TestBatchedTransportEquivalence is the batching tentpole's acceptance
// test: for each of Q1-Q4 under NP, GL and BL, serial and Parallelism(4),
// execution with BatchSize 64 must yield sink output and contribution-graph
// traversal results byte-identical to BatchSize 1 — batching amortises
// channel operations without changing a single observable byte.
func TestBatchedTransportEquivalence(t *testing.T) {
	for _, id := range Queries {
		for _, mode := range Modes {
			for _, parallelism := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/p%d", id, mode, parallelism)
				t.Run(name, func(t *testing.T) {
					unbatched := captureRun(t, id, mode, parallelism, 1)
					if len(unbatched.sinks) == 0 {
						t.Fatalf("%s: unbatched run produced no sink tuples; workload too small", name)
					}
					batched := captureRun(t, id, mode, parallelism, 64)
					if len(batched.sinks) != len(unbatched.sinks) {
						t.Fatalf("sink count differs: batched %d, unbatched %d", len(batched.sinks), len(unbatched.sinks))
					}
					for i := range unbatched.sinks {
						if unbatched.sinks[i] != batched.sinks[i] {
							t.Fatalf("sink tuple %d differs:\nbatch 1:  %s\nbatch 64: %s", i, unbatched.sinks[i], batched.sinks[i])
						}
					}
					pu, pb := sortedCopy(unbatched.prov), sortedCopy(batched.prov)
					if len(pu) != len(pb) {
						t.Fatalf("provenance result count differs: batched %d, unbatched %d", len(pb), len(pu))
					}
					for i := range pu {
						if pu[i] != pb[i] {
							t.Fatalf("provenance result %d differs:\nbatch 1:  %s\nbatch 64: %s", i, pu[i], pb[i])
						}
					}
					if mode != ModeNP && len(unbatched.prov) == 0 {
						t.Fatalf("%s: no provenance results; workload too small", name)
					}
				})
			}
		}
	}
}

// TestFusedPlanEquivalence is the planner tentpole's acceptance test: for
// each of Q1-Q4 under NP, GL and BL, at parallelism 1 and 4, execution with
// the physical planner (operator fusion + shard-prefix replication) must
// yield sink output byte-identical to the unfused plan, and identical
// traversed provenance — fusion removes goroutine hops and hoists stateless
// prefixes into shard lanes without changing one observable byte.
func TestFusedPlanEquivalence(t *testing.T) {
	for _, id := range Queries {
		for _, mode := range Modes {
			for _, parallelism := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/p%d", id, mode, parallelism)
				t.Run(name, func(t *testing.T) {
					unfused := captureRunPlan(t, id, mode, parallelism, 1, false, true)
					if len(unfused.sinks) == 0 {
						t.Fatalf("%s: unfused run produced no sink tuples; workload too small", name)
					}
					fused := captureRunPlan(t, id, mode, parallelism, 1, true, true)
					if len(fused.sinks) != len(unfused.sinks) {
						t.Fatalf("sink count differs: fused %d, unfused %d", len(fused.sinks), len(unfused.sinks))
					}
					for i := range unfused.sinks {
						if unfused.sinks[i] != fused.sinks[i] {
							t.Fatalf("sink tuple %d differs:\nunfused: %s\nfused:   %s", i, unfused.sinks[i], fused.sinks[i])
						}
					}
					pu, pf := sortedCopy(unfused.prov), sortedCopy(fused.prov)
					if len(pu) != len(pf) {
						t.Fatalf("provenance result count differs: fused %d, unfused %d", len(pf), len(pu))
					}
					for i := range pu {
						if pu[i] != pf[i] {
							t.Fatalf("provenance result %d differs:\nunfused: %s\nfused:   %s", i, pu[i], pf[i])
						}
					}
					if mode != ModeNP && len(unfused.prov) == 0 {
						t.Fatalf("%s: no provenance results; workload too small", name)
					}
				})
			}
		}
	}
}

// TestVectorizedPlanEquivalence is the columnar runtime's acceptance test:
// for each of Q1-Q4 under NP, GL and BL, at parallelism 1 and 4, fusion on
// and off, batch 1 and 64, execution with the planner's columnar pass (typed
// kernels over struct-of-arrays batches, columnar window state for the
// stateful operators, batch-wise shard key extraction) must yield sink
// output byte-identical to the row-at-a-time plan, and identical traversed
// provenance. Batch 1 exercises the degenerate single-tuple runs of the
// columnar ingest; batch 64 the vectorized fast path.
func TestVectorizedPlanEquivalence(t *testing.T) {
	for _, id := range Queries {
		for _, mode := range Modes {
			for _, parallelism := range []int{1, 4} {
				for _, fusion := range []bool{true, false} {
					for _, batch := range []int{1, 64} {
						fusion, batch := fusion, batch
						name := fmt.Sprintf("%s/%s/p%d/fusion=%v/batch=%d", id, mode, parallelism, fusion, batch)
						t.Run(name, func(t *testing.T) {
							rows := captureRunPlan(t, id, mode, parallelism, batch, fusion, false)
							if len(rows.sinks) == 0 {
								t.Fatalf("%s: row-path run produced no sink tuples; workload too small", name)
							}
							vec := captureRunPlan(t, id, mode, parallelism, batch, fusion, true)
							if len(vec.sinks) != len(rows.sinks) {
								t.Fatalf("sink count differs: vectorized %d, rows %d", len(vec.sinks), len(rows.sinks))
							}
							for i := range rows.sinks {
								if rows.sinks[i] != vec.sinks[i] {
									t.Fatalf("sink tuple %d differs:\nrows:       %s\nvectorized: %s", i, rows.sinks[i], vec.sinks[i])
								}
							}
							pr, pv := sortedCopy(rows.prov), sortedCopy(vec.prov)
							if len(pr) != len(pv) {
								t.Fatalf("provenance result count differs: vectorized %d, rows %d", len(pv), len(pr))
							}
							for i := range pr {
								if pr[i] != pv[i] {
									t.Fatalf("provenance result %d differs:\nrows:       %s\nvectorized: %s", i, pr[i], pv[i])
								}
							}
							if mode != ModeNP && len(rows.prov) == 0 {
								t.Fatalf("%s: no provenance results; workload too small", name)
							}
						})
					}
				}
			}
		}
	}
}

// TestAdaptiveBatchEquivalence is the adaptive-batching acceptance test:
// for every query (bursty clickstream included) under NP, GL and BL, at
// parallelism 1 and 4, execution with the AIMD batch-size controller live —
// resizing every stream's batch size mid-run — must yield sink output and
// contribution-graph traversal results byte-identical to a fixed batch
// size. The controller may only move work between batches, never reorder,
// drop or duplicate a tuple.
func TestAdaptiveBatchEquivalence(t *testing.T) {
	for _, id := range Queries {
		for _, mode := range Modes {
			for _, parallelism := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/p%d", id, mode, parallelism)
				t.Run(name, func(t *testing.T) {
					fixed := captureRun(t, id, mode, parallelism, 64)
					if len(fixed.sinks) == 0 {
						t.Fatalf("%s: fixed-batch run produced no sink tuples; workload too small", name)
					}
					// A tight min and a batch-1 start maximise live resizes:
					// the controller has to grow from 1 toward 64 and shrink
					// back as queues drain.
					adaptive := captureRunPlan(t, id, mode, parallelism, 1, true, true,
						query.WithAdaptiveBatching(1, 64))
					if len(adaptive.sinks) != len(fixed.sinks) {
						t.Fatalf("sink count differs: adaptive %d, fixed %d", len(adaptive.sinks), len(fixed.sinks))
					}
					for i := range fixed.sinks {
						if fixed.sinks[i] != adaptive.sinks[i] {
							t.Fatalf("sink tuple %d differs:\nfixed:    %s\nadaptive: %s", i, fixed.sinks[i], adaptive.sinks[i])
						}
					}
					pf, pa := sortedCopy(fixed.prov), sortedCopy(adaptive.prov)
					if len(pf) != len(pa) {
						t.Fatalf("provenance result count differs: adaptive %d, fixed %d", len(pa), len(pf))
					}
					for i := range pf {
						if pf[i] != pa[i] {
							t.Fatalf("provenance result %d differs:\nfixed:    %s\nadaptive: %s", i, pf[i], pa[i])
						}
					}
					if mode != ModeNP && len(fixed.prov) == 0 {
						t.Fatalf("%s: no provenance results; workload too small", name)
					}
				})
			}
		}
	}
}

// TestHarnessAdaptiveDimension: a measured harness run accepts the adaptive
// batching dimension — intra- and inter-process, bursty source included —
// and reports it back in its result row.
func TestHarnessAdaptiveDimension(t *testing.T) {
	o := parallelTestOptions(Q5, ModeGL, 1)
	o.AdaptiveBatch = true
	o.SourceBurst = &ops.BurstPacing{
		BurstRate: 500_000, IdleRate: 1000,
		BurstFor: 20 * time.Millisecond, IdleFor: 5 * time.Millisecond,
	}
	for _, d := range []Deployment{Intra, Inter} {
		o.Deployment = d
		r, err := Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if !r.AdaptiveBatch {
			t.Fatalf("%s: Result.AdaptiveBatch = false, want true", d)
		}
		if r.AdaptiveMinBatch != 1 || r.AdaptiveMaxBatch != DefaultAdaptiveMaxBatch {
			t.Fatalf("%s: adaptive bounds = [%d, %d], want defaults [1, %d]",
				d, r.AdaptiveMinBatch, r.AdaptiveMaxBatch, DefaultAdaptiveMaxBatch)
		}
		if r.SinkTuples == 0 {
			t.Fatalf("%s: adaptive bursty run produced no sink tuples", d)
		}
	}
}

// TestHarnessParallelismDimension: a measured harness run accepts the
// parallelism, batch and fusion dimensions and reports them back in its
// result row.
func TestHarnessParallelismDimension(t *testing.T) {
	o := parallelTestOptions(Q1, ModeGL, 4)
	o.BatchSize = 32
	r, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Parallelism != 4 {
		t.Fatalf("Result.Parallelism = %d, want 4", r.Parallelism)
	}
	if r.BatchSize != 32 {
		t.Fatalf("Result.BatchSize = %d, want 32", r.BatchSize)
	}
	if !r.Fusion {
		t.Fatal("Result.Fusion = false, want true (the default)")
	}
	if r.SinkTuples == 0 {
		t.Fatal("parallel harness run produced no sink tuples")
	}
	o.NoFusion = true
	r, err = Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fusion {
		t.Fatal("Result.Fusion = true under Options.NoFusion")
	}
	if r.SinkTuples == 0 {
		t.Fatal("unfused harness run produced no sink tuples")
	}
}

// TestHarnessExplain: the plan helper reports the physical plan of a
// configuration without running it, intra- and inter-process.
func TestHarnessExplain(t *testing.T) {
	o := parallelTestOptions(Q1, ModeGL, 4)
	info, err := Explain(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Text, "physical plan") {
		t.Fatalf("Explain text misses the plan header:\n%s", info.Text)
	}
	if info.HoistedPrefixes == 0 {
		t.Fatalf("Q1 at parallelism 4 should hoist its zero-speed filter:\n%s", info.Text)
	}
	o.NoFusion = true
	info, err = Explain(o)
	if err != nil {
		t.Fatal(err)
	}
	if info.FusedChains != 0 || info.HoistedPrefixes != 0 {
		t.Fatalf("NoFusion plan still rewrites: %+v", info)
	}
	o.NoFusion = false
	o.Deployment = Inter
	info, err = Explain(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(info.Text, "physical plan"); got != 3 {
		t.Fatalf("inter-process GL Explain lists %d plans, want 3 (SPE1-3):\n%s", got, info.Text)
	}
}

// TestExplainInterSharesSUMux: under GL inter-process, every su1 Multiplex
// feeds a Send and the SU's unfold, whose records a second Send ships. Both
// Sends only read, so the Multiplex shares its object with both branches
// instead of cloning every delivering tuple.
func TestExplainInterSharesSUMux(t *testing.T) {
	for _, q := range Queries {
		o := parallelTestOptions(q, ModeGL, 1)
		o.Deployment = Inter
		info, err := Explain(o)
		if err != nil {
			t.Fatal(err)
		}
		links, err := MainLinkCount(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < links; i++ {
			mux := regexp.MustCompile(fmt.Sprintf(`su1-%d\.mux\s+(.*)`, i)).FindStringSubmatch(info.Text)
			if mux == nil || mux[1] != "multiplex shared" {
				t.Fatalf("%s: su1-%d.mux is %v, want multiplex shared:\n%s", q, i, mux, info.Text)
			}
		}
	}
}
