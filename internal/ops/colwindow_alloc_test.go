//go:build !race

// The race detector changes what allocates, so the allocation budgets are
// checked only in plain builds; run them alone with
// `go test -run Alloc ./internal/ops ./internal/core ./internal/transport`.

package ops

import (
	"testing"

	"genealog/internal/core"
)

// TestColAggregateAllocWindowState: once a keyed tumbling ColAggregate has
// grown its window state for one window, a further window allocates only
// what it emits — one fold output per group and one watermark heartbeat —
// and nothing for window state: retired groups' windows are recycled with
// their column capacity.
func TestColAggregateAllocWindowState(t *testing.T) {
	const ws, runs = 32, 8
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, mode := range []string{"NP", "GL"} {
		t.Run(mode, func(t *testing.T) {
			var instr core.Instrumenter = core.Noop{}
			if mode == "GL" {
				instr = &core.Genealog{}
			}
			a, out := tumblingAgg(ws, instr)
			// Window 0 warms up; AllocsPerRun's own warm-up call takes
			// window 1 and the measured calls the windows after it.
			input := make([][]core.Tuple, runs+2)
			for w := range input {
				input[w] = windowRows(int64(w), ws, keys)
			}
			ingestRuns(t, a, input[0])
			next := 1
			allocs := testing.AllocsPerRun(runs, func() {
				ingestRuns(t, a, input[next])
				next++
			})
			if next != runs+2 {
				t.Fatalf("fed %d windows, want %d", next, runs+2)
			}
			// Each window closes once inside the call that feeds the next:
			// len(keys) fold outputs and one heartbeat.
			if budget := float64(len(keys) + 1); allocs > budget {
				t.Fatalf("%.1f allocations per window, budget %.0f (fold outputs + heartbeat)", allocs, budget)
			}
			if n := drainPending(t, out); n == 0 {
				t.Fatal("no output")
			}
		})
	}
}

// TestColJoinAllocResidualProbe: a probe through residual kernels — the
// derived spec's predicate adapter, which every join without declared
// kernels runs — allocates nothing once the probe scratch has grown: the
// candidate segment handed to the kernel lives in the operator.
func TestColJoinAllocResidualProbe(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		spec := JoinSpec{WS: 100,
			Predicate: func(l, r core.Tuple) bool { return l.(*vTuple).Val == r.(*vTuple).Val },
			Combine:   func(l, r core.Tuple) core.Tuple { return nil }}
		if keyed {
			spec.LeftKey, spec.RightKey = keyOf, keyOf
		}
		j := newJoin("j", NewStream("l", 0), NewStream("r", 0), NewStream("out", 0), spec, core.Noop{})
		for i := int64(0); i < 64; i++ {
			r := vt(i, "k", i%8)
			j.bufR.append(r, i, j.spec.RightKey(r))
		}
		probe := vt(64, "k", 3)
		key := j.spec.LeftKey(probe)
		var matches int
		allocs := testing.AllocsPerRun(100, func() {
			matches = len(j.probe(probe, key, &j.bufR, j.col.ResidualL))
		})
		if matches != 8 {
			t.Fatalf("keyed=%v: %d matches, want 8", keyed, matches)
		}
		if allocs != 0 {
			t.Fatalf("keyed=%v: %.1f allocations per residual probe, want 0", keyed, allocs)
		}
	}
}
