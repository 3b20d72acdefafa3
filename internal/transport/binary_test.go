package transport

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"genealog/internal/core"
)

// bwTuple is the binary-codec test tuple.
type bwTuple struct {
	core.Base
	A int32
	B float64
}

var _ WireTuple = (*bwTuple)(nil)

func (t *bwTuple) MarshalWire(buf []byte) ([]byte, error) {
	buf = AppendInt32(buf, t.A)
	buf = AppendFloat64(buf, t.B)
	return buf, nil
}

func (t *bwTuple) UnmarshalWire(data []byte) error {
	var err error
	if t.A, data, err = ReadInt32(data); err != nil {
		return err
	}
	t.B, _, err = ReadFloat64(data)
	return err
}

// bwNested nests another tuple.
type bwNested struct {
	core.Base
	Inner core.Tuple
}

var _ WireTuple = (*bwNested)(nil)

func (t *bwNested) MarshalWire(buf []byte) ([]byte, error) {
	return AppendTupleWire(buf, t.Inner)
}

func (t *bwNested) UnmarshalWire(data []byte) error {
	var err error
	t.Inner, _, err = ReadTupleWire(data)
	return err
}

var registerBinaryOnce sync.Once

func registerBinaryTest() {
	registerBinaryOnce.Do(func() {
		RegisterBinary(200, func() WireTuple { return &bwTuple{} })
		RegisterBinary(201, func() WireTuple { return &bwNested{} })
		RegisterBinary(202, func() WireTuple { return &bwPair{} })
	})
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	registerBinaryTest()
	pipe := NewPipe(0)
	enc := BinaryCodec{}.NewEncoder(pipe)
	dec := BinaryCodec{}.NewDecoder(pipe)

	in := &bwTuple{Base: core.NewBase(42), A: 7, B: 3.25}
	in.SetStimulus(99)
	in.SetID(123)
	in.SetKind(core.KindAggregate)
	in.SetAnnotation([]uint64{1, 2, 3})
	in.SetU1(&bwTuple{}) // must not survive

	if err := enc.Encode(in); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	out := got.(*bwTuple)
	if out.Timestamp() != 42 || out.A != 7 || out.B != 3.25 {
		t.Fatalf("payload lost: %+v", out)
	}
	m := out.ProvMeta()
	if m.Stimulus() != 99 || m.ID() != 123 || m.Kind() != core.KindAggregate {
		t.Fatalf("meta lost: %+v", m)
	}
	if len(m.Annotation()) != 3 || m.Annotation()[2] != 3 {
		t.Fatalf("annotation lost: %v", m.Annotation())
	}
	if m.U1() != nil {
		t.Fatal("pointers must not survive")
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBinaryCodecHeartbeat(t *testing.T) {
	registerBinaryTest()
	pipe := NewPipe(0)
	enc := BinaryCodec{}.NewEncoder(pipe)
	dec := BinaryCodec{}.NewDecoder(pipe)
	if err := enc.Encode(core.NewHeartbeat(77)); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !core.IsHeartbeat(got) || got.Timestamp() != 77 {
		t.Fatalf("heartbeat lost: %T %d", got, got.Timestamp())
	}
}

func TestBinaryCodecNestedTuples(t *testing.T) {
	registerBinaryTest()
	pipe := NewPipe(0)
	enc := BinaryCodec{}.NewEncoder(pipe)
	dec := BinaryCodec{}.NewDecoder(pipe)

	inner := &bwTuple{Base: core.NewBase(5), A: 1, B: 2}
	inner.SetID(55)
	inner.SetKind(core.KindSource)
	in := &bwNested{Base: core.NewBase(9), Inner: inner}
	if err := enc.Encode(in); err != nil {
		t.Fatal(err)
	}
	empty := &bwNested{Base: core.NewBase(10)} // nil inner
	if err := enc.Encode(empty); err != nil {
		t.Fatal(err)
	}
	pipe.Close()

	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	out := got.(*bwNested)
	gi, ok := out.Inner.(*bwTuple)
	if !ok {
		t.Fatalf("inner = %T", out.Inner)
	}
	if gi.Timestamp() != 5 || gi.A != 1 || core.MetaOf(gi).ID() != 55 || core.MetaOf(gi).Kind() != core.KindSource {
		t.Fatalf("inner lost: %+v", gi)
	}
	got, err = dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got.(*bwNested).Inner != nil {
		t.Fatal("nil inner must round-trip as nil")
	}
}

func TestBinaryCodecUnregisteredType(t *testing.T) {
	registerBinaryTest()
	pipe := NewPipe(0)
	enc := BinaryCodec{}.NewEncoder(pipe)
	type unregistered struct{ bwTuple }
	if err := enc.Encode(&unregistered{}); err == nil {
		t.Fatal("unregistered types must fail to encode")
	}
}

func TestBinaryCodecMalformedFrames(t *testing.T) {
	registerBinaryTest()
	// Implausible frame length.
	pipe := NewPipe(0)
	pipe.Write([]byte{0xff, 0xff, 0xff, 0xff})
	pipe.Close()
	if _, err := (BinaryCodec{}).NewDecoder(pipe).Decode(); err == nil {
		t.Fatal("oversized frame must fail")
	}
	// Truncated frame.
	pipe = NewPipe(0)
	pipe.Write([]byte{10, 0, 0, 0, 1, 2, 3})
	pipe.Close()
	if _, err := (BinaryCodec{}).NewDecoder(pipe).Decode(); err == nil {
		t.Fatal("truncated frame must fail")
	}
	// Unknown tag.
	pipe = NewPipe(0)
	var frame []byte
	frame = append(frame, 0xEE, 0xEE) // tag 0xEEEE
	frame = appendMeta(frame, new(core.Meta))
	hdr := []byte{byte(len(frame)), 0, 0, 0}
	pipe.Write(hdr)
	pipe.Write(frame)
	pipe.Close()
	if _, err := (BinaryCodec{}).NewDecoder(pipe).Decode(); err == nil {
		t.Fatal("unknown tag must fail")
	}
}

func TestBinaryCodecManyTuples(t *testing.T) {
	registerBinaryTest()
	pipe := NewPipe(0)
	enc := BinaryCodec{}.NewEncoder(pipe)
	dec := BinaryCodec{}.NewDecoder(pipe)
	const n = 2000
	go func() {
		for i := 0; i < n; i++ {
			if err := enc.Encode(&bwTuple{Base: core.NewBase(int64(i)), A: int32(i), B: float64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
		pipe.Close()
	}()
	for i := 0; i < n; i++ {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if got.Timestamp() != int64(i) || got.(*bwTuple).A != int32(i) {
			t.Fatalf("tuple %d corrupted", i)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestRegisterBinaryReservedTag(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tag 0 must be rejected")
		}
	}()
	RegisterBinary(0, func() WireTuple { return &bwTuple{} })
}

func TestRegisterBinaryRebindPanics(t *testing.T) {
	registerBinaryTest()
	// The same (tag, type) pair again is harmless.
	RegisterBinary(200, func() WireTuple { return &bwTuple{} })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "transport.bwTuple") || !strings.Contains(msg, "transport.other") {
			t.Fatalf("rebinding tag 200 must panic naming both types, got %q", msg)
		}
		// The refused registration must leave tag 200 decoding as before.
		if got, ok := newOf(200); !ok {
			t.Fatal("tag 200 lost")
		} else if _, isTuple := got.(*bwTuple); !isTuple {
			t.Fatalf("tag 200 now decodes as %T", got)
		}
	}()
	type other struct{ bwNested }
	RegisterBinary(200, func() WireTuple { return &other{} })
}

// bwPair has the shape of an unfolded-stream record: scalars plus two nested
// payload tuples, so one frame costs three registry lookups each way.
type bwPair struct {
	core.Base
	ID         int64
	Sink, Orig core.Tuple
}

func (t *bwPair) MarshalWire(buf []byte) ([]byte, error) {
	buf = AppendInt64(buf, t.ID)
	buf, err := AppendTupleWire(buf, t.Sink)
	if err != nil {
		return nil, err
	}
	return AppendTupleWire(buf, t.Orig)
}

func (t *bwPair) UnmarshalWire(data []byte) error {
	var err error
	if t.ID, data, err = ReadInt64(data); err != nil {
		return err
	}
	if t.Sink, data, err = ReadTupleWire(data); err != nil {
		return err
	}
	t.Orig, _, err = ReadTupleWire(data)
	return err
}

// pairRoundTrip returns a function that encodes one nested record and one
// that decodes it again, over a reused in-memory buffer.
func pairRoundTrip(tb testing.TB) (encode, decode func()) {
	registerBinaryTest()
	rec := &bwPair{Base: core.NewBase(9), ID: 7,
		Sink: &bwTuple{Base: core.NewBase(9), A: 1, B: 2},
		Orig: &bwTuple{Base: core.NewBase(5), A: 3, B: 4}}
	var wire bytes.Buffer
	enc := BinaryCodec{}.NewEncoder(&wire)
	var frame bytes.Reader
	dec := BinaryCodec{}.NewDecoder(&frame)
	encode = func() {
		wire.Reset()
		if err := enc.Encode(rec); err != nil {
			tb.Fatal(err)
		}
	}
	decode = func() {
		frame.Reset(wire.Bytes())
		got, err := dec.Decode()
		if err != nil {
			tb.Fatal(err)
		}
		if p := got.(*bwPair); p.ID != 7 || p.Orig.(*bwTuple).A != 3 {
			tb.Fatalf("record corrupted: %+v", p)
		}
	}
	return encode, decode
}

// TestBinaryRecordRoundTripAllocs pins the registry off the per-tuple path:
// encoding a nested record allocates nothing, and decoding it allocates the
// three tuples it returns and nothing else — a lookup that formats a type
// name, or boxes a key, shows up here as an extra allocation per tuple.
func TestBinaryRecordRoundTripAllocs(t *testing.T) {
	encode, decode := pairRoundTrip(t)
	encode() // grow the reused buffers once
	decode()
	if n := testing.AllocsPerRun(200, encode); n != 0 {
		t.Errorf("encoding a nested record allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(200, decode); n != 3 {
		t.Errorf("decoding a nested record allocates %.1f objects, want 3 (the tuples)", n)
	}
}

func BenchmarkBinaryRecordRoundTrip(b *testing.B) {
	encode, decode := pairRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode()
		decode()
	}
}

// TestRegisterBinaryDuringLookups registers types while other goroutines
// resolve tags and types: lookups read whichever snapshot is current,
// without a lock, and must never miss an earlier registration (run under
// -race).
func TestRegisterBinaryDuringLookups(t *testing.T) {
	registerBinaryTest()
	type lateA struct{ bwTuple }
	type lateB struct{ bwTuple }
	type lateC struct{ bwTuple }
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tag, ok := tagOf(&bwNested{})
				if got, found := newOf(tag); !ok || !found || reflect.TypeOf(got) != reflect.TypeOf(&bwNested{}) {
					t.Errorf("bwNested resolved to tag %d (%v) and back to %T during a concurrent registration", tag, ok, got)
					return
				}
			}
		}()
	}
	RegisterBinary(220, func() WireTuple { return &lateA{} })
	RegisterBinary(221, func() WireTuple { return &lateB{} })
	RegisterBinary(222, func() WireTuple { return &lateC{} })
	wg.Wait()
	if tag, ok := tagOf(&lateC{}); !ok || tag != 222 {
		t.Fatalf("lateC registered under %d (%v), want 222", tag, ok)
	}
}

// TestReadTupleWireOneByteFrame: a nested frame whose length prefix leaves no
// room for the 2-byte type tag is a truncation error, not an index panic in
// the decoding goroutine.
func TestReadTupleWireOneByteFrame(t *testing.T) {
	_, _, err := ReadTupleWire([]byte{0x01, 0x00, 0x00, 0x00, 0x07})
	if err == nil || !strings.Contains(err.Error(), "nested tuple truncated") {
		t.Fatalf("err = %v, want a nested-tuple truncation error", err)
	}
}

// FuzzReadTupleWire throws arbitrary bytes at the nested-tuple decoder: it
// must return an error or a tuple, never panic, and a decoded tuple must
// re-encode to a frame that decodes to the same bytes again.
func FuzzReadTupleWire(f *testing.F) {
	registerPlain()
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x07})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	for _, tup := range []core.Tuple{
		&bwTuple{Base: core.NewBase(3), A: 1, B: 2},
		&bwNested{Base: core.NewBase(4), Inner: &bwTuple{Base: core.NewBase(2), A: 5}},
		&bwNested{Base: core.NewBase(4), Inner: &plainTuple{Ts: 2, V: 5}},
		core.NewHeartbeat(8),
	} {
		seed, err := AppendTupleWire(nil, tup)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tup, _, err := ReadTupleWire(data)
		if err != nil || tup == nil {
			return
		}
		once, err := AppendTupleWire(nil, tup)
		if err != nil {
			t.Fatalf("re-encoding a decoded %T: %v", tup, err)
		}
		again, _, err := ReadTupleWire(once)
		if err != nil {
			t.Fatalf("decoding a re-encoded %T: %v", tup, err)
		}
		twice, err := AppendTupleWire(nil, again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("round trip not stable:\n%x\n%x", once, twice)
		}
	})
}

// TestBinaryAnnotationLimit: a frame counts annotation IDs in a u16, so a
// longer baseline list must fail the encode instead of wrapping the count
// and corrupting the frame; the longest list that fits round-trips.
func TestBinaryAnnotationLimit(t *testing.T) {
	registerBinaryTest()
	ann := make([]uint64, maxWireAnnotation+2)
	for i := range ann {
		ann[i] = uint64(i + 1)
	}
	for _, n := range []int{maxWireAnnotation + 1, maxWireAnnotation + 2} {
		in := &bwTuple{Base: core.NewBase(1), A: 5}
		in.SetAnnotation(ann[:n])
		if _, err := AppendTupleWire(nil, in); err == nil || !strings.Contains(err.Error(), "annotation") {
			t.Fatalf("%d IDs: AppendTupleWire err = %v, want an annotation-length error", n, err)
		}
		if err := (BinaryCodec{}).NewEncoder(io.Discard).Encode(in); err == nil {
			t.Fatalf("%d IDs: Encode succeeded", n)
		}
	}

	in := &bwTuple{Base: core.NewBase(1), A: 5}
	in.SetAnnotation(ann[:maxWireAnnotation])
	frame, err := AppendTupleWire(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := ReadTupleWire(frame)
	if err != nil || len(rest) != 0 {
		t.Fatalf("ReadTupleWire = (%v, %d bytes left)", err, len(rest))
	}
	out := got.(*bwTuple)
	if out.A != 5 || !reflect.DeepEqual(out.ProvMeta().Annotation(), ann[:maxWireAnnotation]) {
		t.Fatalf("round trip of %d IDs lost data: A=%d, %d IDs", maxWireAnnotation, out.A, len(out.ProvMeta().Annotation()))
	}
}

// plainTuple carries no meta-attributes: it is not core.Traceable and
// marshals its own event time.
type plainTuple struct {
	Ts int64
	V  int32
}

func (t *plainTuple) Timestamp() int64 { return t.Ts }

func (t *plainTuple) MarshalWire(buf []byte) ([]byte, error) {
	return AppendInt32(AppendInt64(buf, t.Ts), t.V), nil
}

func (t *plainTuple) UnmarshalWire(data []byte) error {
	var err error
	if t.Ts, data, err = ReadInt64(data); err != nil {
		return err
	}
	t.V, _, err = ReadInt32(data)
	return err
}

var registerPlainOnce sync.Once

func registerPlain() {
	registerBinaryTest()
	registerPlainOnce.Do(func() {
		Register(&plainTuple{})
		RegisterBinary(203, func() WireTuple { return &plainTuple{} })
	})
}

// TestMetaLessTupleRoundTrip: a registered type without meta-attributes
// crosses both codecs, per tuple, batched and nested, and its binary frame
// has no meta header: length, tag and body only.
func TestMetaLessTupleRoundTrip(t *testing.T) {
	registerPlain()
	frame, err := AppendTupleWire(nil, &plainTuple{Ts: 5, V: 6})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + 2 + 8 + 4; len(frame) != want {
		t.Fatalf("meta-less frame is %d bytes, want %d (no meta header)", len(frame), want)
	}
	for _, codec := range []Codec{BinaryCodec{}, GobCodec{}} {
		t.Run(reflect.TypeOf(codec).Name(), func(t *testing.T) {
			var wire bytes.Buffer
			enc, dec := codec.NewEncoder(&wire), codec.NewDecoder(&wire)
			if err := enc.Encode(&plainTuple{Ts: 5, V: 6}); err != nil {
				t.Fatal(err)
			}
			batch := []core.Tuple{&plainTuple{Ts: 7, V: 8}, core.NewHeartbeat(8)}
			if err := enc.(BatchEncoder).EncodeBatch(batch); err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if p, ok := got.(*plainTuple); !ok || *p != (plainTuple{Ts: 5, V: 6}) || core.MetaOf(got) != nil {
				t.Fatalf("decoded %#v, want plainTuple{5, 6} without meta", got)
			}
			gotBatch, err := dec.(BatchDecoder).DecodeBatch()
			if err != nil {
				t.Fatal(err)
			}
			if len(gotBatch) != 2 || *gotBatch[0].(*plainTuple) != (plainTuple{Ts: 7, V: 8}) ||
				!core.IsHeartbeat(gotBatch[1]) || gotBatch[1].Timestamp() != 8 {
				t.Fatalf("decoded batch %v", gotBatch)
			}
		})
	}
	nested, err := AppendTupleWire(nil, &bwNested{Base: core.NewBase(9), Inner: &plainTuple{Ts: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadTupleWire(nested)
	if err != nil {
		t.Fatal(err)
	}
	if inner, ok := got.(*bwNested).Inner.(*plainTuple); !ok || *inner != (plainTuple{Ts: 3, V: 4}) {
		t.Fatalf("nested meta-less tuple decoded as %#v", got.(*bwNested).Inner)
	}
}
