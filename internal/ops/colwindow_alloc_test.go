//go:build !race

// The race detector changes what allocates, so the allocation budgets are
// checked only in plain builds; run them alone with
// `go test -run Alloc ./internal/ops ./internal/core`.

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
