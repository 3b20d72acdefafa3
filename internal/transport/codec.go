// Package transport implements the inter-process substrate of the paper's
// §6: Send and Receive operators that move tuples between SPE instances
// across a serialisation boundary, two codecs (the hand-rolled BinaryCodec
// every link defaults to, and GobCodec), an in-memory serialising pipe, a TCP transport, and a token-bucket throttle that models
// constrained edge links (the paper's 100 Mbps switch).
//
// Crossing a Send/Receive pair is what destroys the in-process U1/U2/N
// pointers; the Receive re-types every non-SOURCE tuple as REMOTE, exactly
// the situation GeneaLog's multi-stream unfolder resolves.
package transport

import (
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"genealog/internal/core"
)

// Encoder serialises tuples onto one connection.
type Encoder interface {
	Encode(core.Tuple) error
}

// Decoder deserialises tuples from one connection. It returns io.EOF once
// the peer has closed the stream.
type Decoder interface {
	Decode() (core.Tuple, error)
}

// BatchEncoder serialises whole tuple batches in one wire frame, amortising
// framing and flushing across the batch. A Send operator prefers it over
// per-tuple Encode when the link's encoder implements it; both peers of a
// link must then use the batch framing (Receive does so automatically).
type BatchEncoder interface {
	EncodeBatch([]core.Tuple) error
}

// BatchDecoder deserialises the frames a BatchEncoder produces. It returns
// io.EOF once the peer has closed the stream; returned batches are never
// empty.
type BatchDecoder interface {
	DecodeBatch() ([]core.Tuple, error)
}

// Codec builds per-connection encoders and decoders. Both built-in codecs
// (GobCodec, BinaryCodec) also implement BatchEncoder/BatchDecoder on the
// values they return.
type Codec interface {
	NewEncoder(w io.Writer) Encoder
	NewDecoder(r io.Reader) Decoder
}

// Register makes a concrete tuple type known to the gob codec. Call it once
// per application tuple type (typically from the workload package's
// RegisterWire function). The engine's own wire-crossing types (watermark
// heartbeats) are registered automatically on first use.
func Register(value any) {
	registerBuiltins()
	gob.Register(value)
}

var builtinsOnce sync.Once

func registerBuiltins() {
	builtinsOnce.Do(func() {
		gob.Register(&core.Heartbeat{})
	})
}

// GobCodec serialises tuples with encoding/gob: no WireTuple methods or tags
// to declare, at several times BinaryCodec's per-tuple cost. Select it with
// WithCodec. Tuple structs embed core.Meta, whose GobEncode keeps event
// time, stimulus, ID, kind and the baseline annotation — and drops the
// process-local U1/U2/N pointers.
type GobCodec struct{}

var _ Codec = GobCodec{}

type gobEncoder struct{ enc *gob.Encoder }

type gobDecoder struct{ dec *gob.Decoder }

// NewEncoder implements Codec.
func (GobCodec) NewEncoder(w io.Writer) Encoder {
	return &gobEncoder{enc: gob.NewEncoder(w)}
}

// NewDecoder implements Codec.
func (GobCodec) NewDecoder(r io.Reader) Decoder {
	return &gobDecoder{dec: gob.NewDecoder(r)}
}

func (e *gobEncoder) Encode(t core.Tuple) error {
	if err := e.enc.Encode(&t); err != nil {
		return fmt.Errorf("transport: gob encode %T: %w", t, err)
	}
	return nil
}

func (d *gobDecoder) Decode() (core.Tuple, error) {
	var t core.Tuple
	if err := d.dec.Decode(&t); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: gob decode: %w", err)
	}
	return t, nil
}

// EncodeBatch implements BatchEncoder: one gob value per batch instead of
// one per tuple.
func (e *gobEncoder) EncodeBatch(batch []core.Tuple) error {
	if len(batch) == 0 {
		return nil
	}
	if err := e.enc.Encode(&batch); err != nil {
		return fmt.Errorf("transport: gob encode batch of %d: %w", len(batch), err)
	}
	return nil
}

// DecodeBatch implements BatchDecoder.
func (d *gobDecoder) DecodeBatch() ([]core.Tuple, error) {
	var batch []core.Tuple
	if err := d.dec.Decode(&batch); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: gob decode batch: %w", err)
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("transport: gob decode batch: empty batch frame")
	}
	return batch, nil
}
