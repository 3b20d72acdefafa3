//go:build !race

// The race detector changes what allocates, so the allocation budgets are
// checked only in plain builds; run them alone with
// `go test -run Alloc ./internal/transport`.

package transport

import "testing"

// TestPipeSteadyStateNoAlloc: once the ring has grown to the backlog it
// carries, frame-sized writes and reads allocate nothing, also while the
// backlog wraps around the ring's end.
func TestPipeSteadyStateNoAlloc(t *testing.T) {
	p := NewPipe(0)
	frame := make([]byte, 77)
	for i := 0; i < 100; i++ {
		p.Write(frame)
	}
	// A standing backlog of 100 frames in an 8 KiB ring: every write and
	// read moves head and tail on, so they cross the end every ~106 frames.
	cycle := func() {
		for i := 0; i < 200; i++ {
			p.Write(frame)
			p.Read(frame)
		}
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm pipe allocates %.1f times per 200 frames, want 0", allocs)
	}
	if len(p.buf) != 8<<10 {
		t.Fatalf("ring is %d bytes, want 8 KiB for a 7.7 KB backlog", len(p.buf))
	}
}
