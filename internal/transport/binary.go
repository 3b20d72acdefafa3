package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"genealog/internal/core"
)

// BinaryCodec, the link default, is a hand-rolled, length-prefixed wire
// format that avoids gob's reflection and per-connection type descriptors.
// The Fig. 13 experiments show serialisation dominating inter-process cost
// at high rates; BinaryCodec roughly quarters the per-tuple wire cost (see
// BenchmarkCodecComparison).
//
// Tuple types must implement WireTuple and be registered once with
// RegisterBinary under a stable, deployment-unique type tag.
//
// Frame layout (little endian):
//
//	u32 payload length (tag + meta + body)
//	u16 type tag
//	meta: u8 kind, i64 ts, i64 stim, u64 id, u16 annotation count, u64...
//	body: the tuple's MarshalWire output
//
// Only types carrying meta-attributes (core.Traceable ones, and heartbeats)
// have the meta header. A meta-less type — the unfolded-stream record —
// has tag and body only, and its MarshalWire writes its own event time.
// A tuple whose baseline annotation holds more IDs than the u16 count can
// say fails to encode.
type BinaryCodec struct{}

var _ Codec = BinaryCodec{}

// WireTuple is implemented by tuples that can serialise their payload. A
// tuple embedding core.Base leaves the meta-attributes, event time included,
// to the codec's meta header and marshals the rest. A tuple without
// meta-attributes (not core.Traceable) gets no header and marshals
// everything it needs back, its event time included.
type WireTuple interface {
	core.Tuple
	// MarshalWire appends the payload encoding to buf.
	MarshalWire(buf []byte) ([]byte, error)
	// UnmarshalWire decodes the payload; data holds exactly the bytes
	// MarshalWire produced.
	UnmarshalWire(data []byte) error
}

// heartbeatTag is the reserved type tag for watermark markers.
const heartbeatTag = 0

// binaryEntry is one registered tuple type: its factory and the concrete
// type the factory returns.
type binaryEntry struct {
	factory func() WireTuple
	typ     reflect.Type
}

// binaryRegistry is an immutable snapshot of the registered (tag, type)
// pairs. The codec resolves three entries per unfolded Record (the record
// and its two nested tuples), so lookups are a plain map read on the
// current snapshot: no lock, no formatting, no allocation. RegisterBinary
// publishes a fresh copy.
type binaryRegistry struct {
	byTag  map[uint16]binaryEntry
	byType map[reflect.Type]uint16
}

var (
	binReg   atomic.Pointer[binaryRegistry]
	binRegMu sync.Mutex // serialises RegisterBinary's copy-and-publish
)

func init() {
	binReg.Store(&binaryRegistry{byTag: map[uint16]binaryEntry{}, byType: map[reflect.Type]uint16{}})
}

// RegisterBinary registers a tuple type for BinaryCodec under tag (> 0).
// factory must return a fresh tuple of that type. Both peers of a link must
// register identical (tag, type) pairs. Registering the same pair again is a
// no-op; binding a type to a second tag, or a tag to a second type, panics —
// either would corrupt every later decode on that tag.
func RegisterBinary(tag uint16, factory func() WireTuple) {
	if tag == heartbeatTag {
		panic("transport: binary tag 0 is reserved for heartbeats")
	}
	typ := reflect.TypeOf(factory())
	binRegMu.Lock()
	defer binRegMu.Unlock()
	cur := binReg.Load()
	if existing, dup := cur.byType[typ]; dup && existing != tag {
		panic(fmt.Sprintf("transport: %s already registered under tag %d", typ, existing))
	}
	if bound, dup := cur.byTag[tag]; dup && bound.typ != typ {
		panic(fmt.Sprintf("transport: binary tag %d is already bound to %s, cannot rebind it to %s", tag, bound.typ, typ))
	}
	next := &binaryRegistry{byTag: maps.Clone(cur.byTag), byType: maps.Clone(cur.byType)}
	next.byTag[tag] = binaryEntry{factory: factory, typ: typ}
	next.byType[typ] = tag
	binReg.Store(next)
}

func tagOf(t core.Tuple) (uint16, bool) {
	tag, ok := binReg.Load().byType[reflect.TypeOf(t)]
	return tag, ok
}

func newOf(tag uint16) (WireTuple, bool) {
	e, ok := binReg.Load().byTag[tag]
	if !ok {
		return nil, false
	}
	return e.factory(), true
}

type binaryEncoder struct {
	w   *bufio.Writer
	buf []byte
}

type binaryDecoder struct {
	r   *bufio.Reader
	buf []byte
	hdr [4]byte // length/count prefix scratch (a local would escape into the Reader)
}

// NewEncoder implements Codec.
func (BinaryCodec) NewEncoder(w io.Writer) Encoder {
	return &binaryEncoder{w: bufio.NewWriter(w)}
}

// NewDecoder implements Codec.
func (BinaryCodec) NewDecoder(r io.Reader) Decoder {
	return &binaryDecoder{r: bufio.NewReader(r)}
}

// MaxBatchFrameTuples bounds the tuple count of one binary batch frame, a
// plausibility check mirroring the per-frame length bound. Callers that
// accept a user-facing batch size (the harness, genealog-bench) validate
// against it up front so a run cannot fail mid-flight at the first flush.
const MaxBatchFrameTuples = 1 << 20

// Encode implements Encoder.
func (e *binaryEncoder) Encode(t core.Tuple) error {
	if err := e.writeFrame(t); err != nil {
		return err
	}
	// Flush per tuple: peers must observe tuples promptly (streams, not
	// batch files). bufio still coalesces the header+payload writes.
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("transport: binary encode: %w", err)
	}
	return nil
}

// EncodeBatch implements BatchEncoder: a u32 tuple count followed by the
// tuples' individual frames, flushed once — the framing-amortisation the
// batched stream transport exists for.
func (e *binaryEncoder) EncodeBatch(batch []core.Tuple) error {
	if len(batch) == 0 {
		return nil
	}
	if len(batch) > MaxBatchFrameTuples {
		return fmt.Errorf("transport: binary encode: batch of %d exceeds frame bound %d", len(batch), MaxBatchFrameTuples)
	}
	var cntHdr [4]byte
	binary.LittleEndian.PutUint32(cntHdr[:], uint32(len(batch)))
	if _, err := e.w.Write(cntHdr[:]); err != nil {
		return fmt.Errorf("transport: binary encode: %w", err)
	}
	for _, t := range batch {
		if err := e.writeFrame(t); err != nil {
			return err
		}
	}
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("transport: binary encode: %w", err)
	}
	return nil
}

// writeFrame writes one tuple's length-prefixed frame — the same layout
// AppendTupleWire nests inside a payload — without flushing. The frame is
// assembled in the reused buffer and leaves in one Write.
func (e *binaryEncoder) writeFrame(t core.Tuple) error {
	frame, err := AppendTupleWire(e.buf[:0], t)
	if err != nil {
		return fmt.Errorf("transport: binary encode %T: %w", t, err)
	}
	e.buf = frame
	if _, err := e.w.Write(frame); err != nil {
		return fmt.Errorf("transport: binary encode: %w", err)
	}
	return nil
}

// readU32 reads one little-endian length or count prefix.
func (d *binaryDecoder) readU32() (uint32, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(d.hdr[:]), nil
}

// Decode implements Decoder.
func (d *binaryDecoder) Decode() (core.Tuple, error) {
	n, err := d.readU32()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: binary decode: %w", err)
	}
	return d.readFrame(n)
}

// DecodeBatch implements BatchDecoder, reversing EncodeBatch.
func (d *binaryDecoder) DecodeBatch() ([]core.Tuple, error) {
	count, err := d.readU32()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: binary decode: %w", err)
	}
	if count == 0 || count > MaxBatchFrameTuples {
		return nil, fmt.Errorf("transport: binary decode: implausible batch count %d", count)
	}
	batch := make([]core.Tuple, 0, count)
	for i := uint32(0); i < count; i++ {
		n, err := d.readU32()
		if err != nil {
			return nil, fmt.Errorf("transport: binary decode: truncated batch: %w", err)
		}
		t, err := d.readFrame(n)
		if err != nil {
			return nil, err
		}
		batch = append(batch, t)
	}
	return batch, nil
}

// readFrame reads and decodes one tuple frame whose length prefix has
// already been consumed.
func (d *binaryDecoder) readFrame(n uint32) (core.Tuple, error) {
	if n < 2 || n > 1<<24 {
		return nil, fmt.Errorf("transport: binary decode: implausible frame length %d", n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return nil, fmt.Errorf("transport: binary decode: truncated frame: %w", err)
	}
	return decodeFrame(d.buf)
}

// decodeFrame decodes one frame past its length prefix: the type tag, the
// meta header of a type that carries meta-attributes, and the body.
func decodeFrame(frame []byte) (core.Tuple, error) {
	tag := binary.LittleEndian.Uint16(frame)
	body := frame[2:]
	var t core.Tuple
	var wt WireTuple
	if tag == heartbeatTag {
		t = core.NewHeartbeat(0)
	} else {
		var ok bool
		if wt, ok = newOf(tag); !ok {
			return nil, fmt.Errorf("transport: binary decode: unknown type tag %d", tag)
		}
		t = wt
	}
	if m := core.MetaOf(t); m != nil {
		used, err := readMeta(body, m)
		if err != nil {
			return nil, err
		}
		body = body[used:]
	}
	if wt != nil {
		if err := wt.UnmarshalWire(body); err != nil {
			return nil, fmt.Errorf("transport: binary decode %T: %w", t, err)
		}
	}
	return t, nil
}

// maxWireAnnotation is the longest baseline annotation list a frame's u16
// count can carry; AppendTupleWire rejects a longer one.
const maxWireAnnotation = math.MaxUint16

// appendMeta writes the wire-relevant Meta fields (same content as the gob
// path: kind, ts, stimulus, ID, baseline annotation; pointers are dropped).
// The annotation must hold at most maxWireAnnotation IDs.
func appendMeta(buf []byte, m *core.Meta) []byte {
	ann := m.Annotation()
	buf = append(buf, byte(m.Kind()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Timestamp()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Stimulus()))
	buf = binary.LittleEndian.AppendUint64(buf, m.ID())
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ann)))
	for _, a := range ann {
		buf = binary.LittleEndian.AppendUint64(buf, a)
	}
	return buf
}

// readMeta parses what appendMeta wrote into m and returns the bytes
// consumed.
func readMeta(data []byte, m *core.Meta) (int, error) {
	const fixed = 1 + 8 + 8 + 8 + 2
	if len(data) < fixed {
		return 0, fmt.Errorf("transport: binary decode: meta truncated (%d bytes)", len(data))
	}
	m.SetKind(core.Kind(data[0]))
	m.SetTimestamp(int64(binary.LittleEndian.Uint64(data[1:])))
	m.SetStimulus(int64(binary.LittleEndian.Uint64(data[9:])))
	m.SetID(binary.LittleEndian.Uint64(data[17:]))
	nAnn := int(binary.LittleEndian.Uint16(data[25:]))
	used := fixed
	if nAnn > 0 {
		if len(data) < used+8*nAnn {
			return 0, fmt.Errorf("transport: binary decode: annotation truncated")
		}
		ann := make([]uint64, nAnn)
		for i := range ann {
			ann[i] = binary.LittleEndian.Uint64(data[used:])
			used += 8
		}
		m.SetAnnotation(ann)
	}
	return used, nil
}

// Wire-encoding helpers for WireTuple implementations.

// AppendInt32 appends a little-endian int32.
func AppendInt32(buf []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(v))
}

// ReadInt32 reads a little-endian int32.
func ReadInt32(data []byte) (int32, []byte, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("transport: wire data truncated (int32)")
	}
	return int32(binary.LittleEndian.Uint32(data)), data[4:], nil
}

// AppendInt64 appends a little-endian int64.
func AppendInt64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// ReadInt64 reads a little-endian int64.
func ReadInt64(data []byte) (int64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("transport: wire data truncated (int64)")
	}
	return int64(binary.LittleEndian.Uint64(data)), data[8:], nil
}

// AppendFloat64 appends a little-endian IEEE-754 float64.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// ReadFloat64 reads a little-endian IEEE-754 float64.
func ReadFloat64(data []byte) (float64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("transport: wire data truncated (float64)")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:], nil
}

// AppendTupleWire encodes a registered tuple — tag, meta header if the type
// carries meta-attributes, payload, prefixed with its own length: one frame
// of the codec — so WireTuple implementations can nest tuples (the
// unfolded-stream Record carries its sink and originating tuples). A nil
// tuple encodes as a zero length.
func AppendTupleWire(buf []byte, t core.Tuple) ([]byte, error) {
	if t == nil {
		return binary.LittleEndian.AppendUint32(buf, 0), nil
	}
	var tag uint16
	var wt WireTuple
	if !core.IsHeartbeat(t) {
		var ok bool
		tag, ok = tagOf(t)
		if !ok {
			return nil, fmt.Errorf("transport: type %T not registered with RegisterBinary", t)
		}
		wt, ok = t.(WireTuple)
		if !ok {
			return nil, fmt.Errorf("transport: type %T does not implement WireTuple", t)
		}
	}
	m := core.MetaOf(t)
	if m != nil && len(m.Annotation()) > maxWireAnnotation {
		return nil, fmt.Errorf("transport: %T carries %d annotation IDs, the binary frame holds at most %d", t, len(m.Annotation()), maxWireAnnotation)
	}
	lenAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // patched below
	buf = binary.LittleEndian.AppendUint16(buf, tag)
	if m != nil {
		buf = appendMeta(buf, m)
	}
	if wt != nil {
		var err error
		buf, err = wt.MarshalWire(buf)
		if err != nil {
			return nil, err
		}
	}
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	return buf, nil
}

// ReadTupleWire reverses AppendTupleWire, returning the tuple (nil for a
// nil marker) and the remaining bytes.
func ReadTupleWire(data []byte) (core.Tuple, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("transport: nested tuple truncated")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if n == 0 {
		return nil, data, nil
	}
	if n < 2 {
		return nil, nil, fmt.Errorf("transport: nested tuple truncated (frame length %d has no type tag)", n)
	}
	if len(data) < int(n) {
		return nil, nil, fmt.Errorf("transport: nested tuple truncated (%d < %d)", len(data), n)
	}
	t, err := decodeFrame(data[:n])
	if err != nil {
		return nil, nil, err
	}
	return t, data[n:], nil
}
