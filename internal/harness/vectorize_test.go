package harness

import (
	"context"
	"strings"
	"testing"
)

// TestDeclaredKernelsVectorize is the vet for the workload kernel
// declarations: every workload operator that declares a columnar spec
// (query.ColSpec in internal/linearroad, internal/smartgrid and
// internal/clickstream) must
// actually come out of the planner vectorized — a declaration the planner
// silently ignores (missing schema, kernel dropped by a refactor) fails
// here instead of degrading to row closures unnoticed.
func TestDeclaredKernelsVectorize(t *testing.T) {
	// The declared kernel-capable segments per query at parallelism 1: the
	// stateless stages (Q1 zero-speed + stopped, Q2 adds accident, Q3
	// zero-cons + blackout, Q4 midnight + anomaly, Q5 engaged+project +
	// hot) each materialise as their own vectorized segment, plus the
	// stateful operators with declared fold/probe kernels (Q1 window; Q2
	// both windows; Q3 daily-sum + daily-count; Q4 daily-sum + join; Q5
	// session-count).
	wantTotal := map[QueryID]int{Q1: 3, Q2: 5, Q3: 4, Q4: 4, Q5: 3}
	wantStateful := map[QueryID]int{Q1: 1, Q2: 2, Q3: 2, Q4: 2, Q5: 1}
	for _, q := range Queries {
		o := parallelTestOptions(q, ModeNP, 1)
		info, err := Explain(o)
		if err != nil {
			t.Fatal(err)
		}
		if info.VectorizedSegments != wantTotal[q] {
			t.Errorf("%s: %d vectorized segments, want %d:\n%s", q, info.VectorizedSegments, wantTotal[q], info.Text)
		}
		if info.VectorizedStatefulSegments != wantStateful[q] {
			t.Errorf("%s: %d vectorized stateful segments, want %d:\n%s", q, info.VectorizedStatefulSegments, wantStateful[q], info.Text)
		}
		if !strings.Contains(info.Text, "vectorized") {
			t.Errorf("%s: Explain text misses the vectorized marker:\n%s", q, info.Text)
		}
		o.NoVectorize = true
		info, err = Explain(o)
		if err != nil {
			t.Fatal(err)
		}
		if info.VectorizedSegments != 0 {
			t.Errorf("%s: NoVectorize plan still vectorizes %d segments:\n%s", q, info.VectorizedSegments, info.Text)
		}
		if info.VectorizedStatefulSegments != 0 {
			t.Errorf("%s: NoVectorize plan still vectorizes %d stateful segments:\n%s", q, info.VectorizedStatefulSegments, info.Text)
		}
		if strings.Contains(info.Text, "vectorized") || strings.Contains(info.Text, "vec[") {
			t.Errorf("%s: NoVectorize Explain text still marks vectorized segments:\n%s", q, info.Text)
		}
	}
}

// TestStatefulKernelsVectorizeSharded: at parallelism > 1 the stateful
// operators keep their columnar window state inside every shard lane — the
// plan marks the lanes vec[...] and the stateful count is unchanged (a shard
// subgraph counts once, like the serial operator it replaces).
func TestStatefulKernelsVectorizeSharded(t *testing.T) {
	wantStateful := map[QueryID]int{Q1: 1, Q2: 2, Q3: 2, Q4: 2, Q5: 1}
	for _, q := range Queries {
		o := parallelTestOptions(q, ModeNP, 4)
		info, err := Explain(o)
		if err != nil {
			t.Fatal(err)
		}
		if info.VectorizedStatefulSegments != wantStateful[q] {
			t.Errorf("%s: %d vectorized stateful segments at parallelism 4, want %d:\n%s",
				q, info.VectorizedStatefulSegments, wantStateful[q], info.Text)
		}
		if !strings.Contains(info.Text, "vec[") {
			t.Errorf("%s: sharded Explain text misses the vec[...] lane marker:\n%s", q, info.Text)
		}
	}
}

// TestVectorizeResultDimension: a measured run reports the vectorize
// dimension back in its result row, and NoVectorize switches it off.
func TestVectorizeResultDimension(t *testing.T) {
	o := parallelTestOptions(Q1, ModeNP, 1)
	r, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Vectorized {
		t.Fatal("Result.Vectorized = false, want true (the default)")
	}
	o.NoVectorize = true
	if r, err = Run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if r.Vectorized {
		t.Fatal("Result.Vectorized = true under Options.NoVectorize")
	}
	if r.SinkTuples == 0 {
		t.Fatal("row-path harness run produced no sink tuples")
	}
}
