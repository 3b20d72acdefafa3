package ops

import (
	"testing"
	"testing/quick"
)

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0}, {-1, 30, -1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestWindowStarts(t *testing.T) {
	// Fig. 1: WS=120, WA=30; ts=1 belongs to windows starting -90..0.
	if got := firstWindowStart(1, 120, 30); got != -90 {
		t.Errorf("firstWindowStart(1,120,30) = %d, want -90", got)
	}
	if got := lastWindowStart(1, 30); got != 0 {
		t.Errorf("lastWindowStart(1,30) = %d, want 0", got)
	}
	// Tumbling daily windows (Q3): ts=25h is in the window starting 24.
	if got := firstWindowStart(25, 24, 24); got != 24 {
		t.Errorf("firstWindowStart(25,24,24) = %d, want 24", got)
	}
	if got := lastWindowStart(25, 24); got != 24 {
		t.Errorf("lastWindowStart(25,24) = %d, want 24", got)
	}
	// Boundary: ts exactly at a window start belongs to that window and not
	// to the one ending there.
	if got := firstWindowStart(120, 120, 30); got != 30 {
		t.Errorf("firstWindowStart(120,120,30) = %d, want 30", got)
	}
}

func TestWindowInvariantsProperty(t *testing.T) {
	prop := func(tsRaw int32, wsRaw, waRaw uint16) bool {
		ts := int64(tsRaw)
		ws := int64(wsRaw%1000) + 1
		wa := int64(waRaw%1000) + 1
		if wa > ws {
			ws, wa = wa, ws
		}
		first := firstWindowStart(ts, ws, wa)
		last := lastWindowStart(ts, wa)
		// Both extremes contain ts.
		if !windowContains(first, ws, ts) || !windowContains(last, ws, ts) {
			return false
		}
		// One step outside either extreme no longer contains ts.
		if windowContains(first-wa, ws, ts) || windowContains(last+wa, ws, ts) {
			return false
		}
		// Starts are aligned to wa.
		if first%wa != 0 || last%wa != 0 {
			return false
		}
		return first <= last
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
