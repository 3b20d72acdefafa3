//go:build !race

// The race detector changes what allocates, so the allocation budgets are
// checked only in plain builds; run them alone with
// `go test -run Alloc ./internal/provenance`.

package provenance

import (
	"bytes"
	"sync"
	"testing"

	"genealog/internal/core"
	"genealog/internal/transport"
)

// numTuple is a payload that decodes without allocating, so a decode's
// allocations are the tuples themselves.
type numTuple struct {
	core.Base
	V int64
}

func (t *numTuple) MarshalWire(buf []byte) ([]byte, error) {
	return transport.AppendInt64(buf, t.V), nil
}

func (t *numTuple) UnmarshalWire(data []byte) error {
	var err error
	t.V, _, err = transport.ReadInt64(data)
	return err
}

var registerNumOnce sync.Once

func registerNum() {
	registerNumOnce.Do(func() {
		transport.RegisterBinary(191, func() transport.WireTuple { return &numTuple{} })
		RegisterWire()
	})
}

// TestSUUnfoldAllocOnePerRecord: the SU's unfold allocates the records it
// emits and nothing else, not even the traversal's result.
func TestSUUnfoldAllocOnePerRecord(t *testing.T) {
	g := &core.Genealog{IDs: core.NewIDGen(1)}
	window := make([]core.Tuple, 6)
	for i := range window {
		window[i] = &numTuple{Base: core.NewBase(int64(i)), V: int64(i)}
		g.OnSource(window[i])
		if i > 0 {
			g.OnAggregateLink(window[i-1], window[i])
		}
	}
	sink := &numTuple{Base: core.NewBase(6)}
	g.OnAggregateEmit(sink, window)
	unfold := unfolder(SUConfig{})
	records := 0
	emit := func(core.Tuple) { records++ }
	allocs := testing.AllocsPerRun(100, func() {
		records = 0
		unfold(sink, emit)
	})
	if records != len(window) {
		t.Fatalf("unfold emitted %d records, want %d", records, len(window))
	}
	if perRecord := allocs / float64(records); perRecord != 1 {
		t.Fatalf("unfold allocates %.2f times per record, want 1", perRecord)
	}
}

// recordRoundTrip returns functions that encode rec over a reused buffer and
// decode it again.
func recordRoundTrip(t *testing.T, rec *Record) (encode func(), decode func() *Record) {
	registerNum()
	var wire bytes.Buffer
	enc := transport.BinaryCodec{}.NewEncoder(&wire)
	var frame bytes.Reader
	dec := transport.BinaryCodec{}.NewDecoder(&frame)
	encode = func() {
		wire.Reset()
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	decode = func() *Record {
		frame.Reset(wire.Bytes())
		got, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		return got.(*Record)
	}
	return encode, decode
}

// TestRecordDecodeAlloc: decoding a record allocates the record and the
// tuples it carries, and nothing else: three for a SOURCE origin (record,
// sink, origin), two for a REMOTE one, whose origin does not cross the wire.
// Encoding allocates nothing.
func TestRecordDecodeAlloc(t *testing.T) {
	for _, c := range []struct {
		kind core.Kind
		want float64
	}{{core.KindSource, 3}, {core.KindRemote, 2}} {
		t.Run(c.kind.String(), func(t *testing.T) {
			sink := &numTuple{Base: core.NewBase(9), V: 7}
			orig := &numTuple{Base: core.NewBase(4), V: 3}
			orig.SetKind(c.kind)
			rec := &Record{Ts: 9, SinkID: 11, OrigID: 12, OrigTs: 4, OrigKind: c.kind, Sink: sink, Orig: orig}
			encode, decode := recordRoundTrip(t, rec)
			encode()
			got := decode() // grows the reused buffers once
			if got.Ts != 9 || got.SinkID != 11 || got.OrigID != 12 || got.OrigTs != 4 || got.OrigKind != c.kind ||
				got.Sink.(*numTuple).V != 7 {
				t.Fatalf("decoded %+v from %+v", got, rec)
			}
			if (got.Orig != nil) != (c.kind == core.KindSource) {
				t.Fatalf("decoded origin %v for a %v record", got.Orig, c.kind)
			}
			if n := testing.AllocsPerRun(100, encode); n != 0 {
				t.Errorf("encoding a record allocates %.1f objects, want 0", n)
			}
			if n := testing.AllocsPerRun(100, func() { decode() }); n != c.want {
				t.Errorf("decoding a %v record allocates %.1f objects, want %v", c.kind, n, c.want)
			}
		})
	}
}
