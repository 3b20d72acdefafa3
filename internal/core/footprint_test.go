package core_test

import (
	"strconv"
	"testing"
	"unsafe"

	"genealog/internal/baseline"
	"genealog/internal/clickstream"
	"genealog/internal/core"
	"genealog/internal/linearroad"
	"genealog/internal/provenance"
	"genealog/internal/smartgrid"
)

// TestMetaFootprint guards the fixed per-tuple cost (challenge C1): Meta is
// exactly its seven fields, and the workloads' source tuples and the
// unfolders' records stay inside their allocation size classes.
func TestMetaFootprint(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(core.Meta{}); got != 80 {
		t.Errorf("core.Meta is %d bytes, want 80", got)
	}
	for name, size := range map[string]uintptr{
		"linearroad.PositionReport": unsafe.Sizeof(linearroad.PositionReport{}),
		"smartgrid.MeterReading":    unsafe.Sizeof(smartgrid.MeterReading{}),
		"clickstream.ClickEvent":    unsafe.Sizeof(clickstream.ClickEvent{}),
	} {
		if size > 96 {
			t.Errorf("%s is %d bytes, want at most 96", name, size)
		}
	}
	if got := unsafe.Sizeof(provenance.Record{}); got > 144 {
		t.Errorf("provenance.Record is %d bytes, want at most 144", got)
	}
}

// TestAnnotationHiddenInNSlot: BL's annotation list shares the N slot, so N
// readers must never see it, and everything that clears N clears it too.
func TestAnnotationHiddenInNSlot(t *testing.T) {
	bl := &baseline.Instrumenter{IDs: core.NewIDGen(1)}
	src := linearroad.NewPositionReport(1, 7, 30, 100)
	bl.OnSource(src)
	mapped := linearroad.NewPositionReport(1, 7, 30, 100)
	bl.OnMap(mapped, src)
	for name, tu := range map[string]*linearroad.PositionReport{"source": src, "map": mapped} {
		if len(tu.Annotation()) != 1 || tu.Annotation()[0] != src.ID() {
			t.Fatalf("%s: annotation = %v, want [%d]", name, tu.Annotation(), src.ID())
		}
		if tu.Next() != nil {
			t.Fatalf("%s: Next() = %v on an annotated tuple, want nil", name, tu.Next())
		}
		if got := core.FindProvenance(tu); len(got) != 1 || got[0] != tu {
			t.Fatalf("%s: FindProvenance = %v, want the tuple itself", name, got)
		}
	}

	// A window whose oldest tuple carries a list: the N walk from U2 must
	// stop there rather than enqueue the list.
	newer := linearroad.NewPositionReport(2, 7, 30, 100)
	newer.SetKind(core.KindSource)
	agg := linearroad.NewPositionReport(2, 7, 30, 100)
	agg.SetKind(core.KindAggregate)
	agg.SetU2(src)
	agg.SetU1(newer)
	if got := core.FindProvenance(agg); len(got) != 2 || got[0] != src || got[1] != newer {
		t.Fatalf("FindProvenance(aggregate) = %v, want [U2 U1]", got)
	}

	mapped.ResetProvenance()
	if mapped.Annotation() != nil {
		t.Fatalf("ResetProvenance left annotation %v", mapped.Annotation())
	}
	(&core.Genealog{}).OnReceive(src)
	if src.Annotation() != nil || src.Kind() != core.KindSource {
		t.Fatalf("GL OnReceive left annotation %v (kind %v)", src.Annotation(), src.Kind())
	}
}
