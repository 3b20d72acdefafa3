package transport

import (
	"context"
	"errors"
	"fmt"
	"io"

	"genealog/internal/core"
	"genealog/internal/ops"
	"genealog/internal/query"
)

// Send transmits the tuples of a stream to another SPE instance (paper §2).
// Semantically it forwards tuples; in implementation it creates new memory
// objects on the receiving side, which is why §4.1 instruments the pair so
// received non-SOURCE tuples become REMOTE.
type Send struct {
	name   string
	in     *ops.Stream
	enc    Encoder
	closer io.Closer
	instr  core.Instrumenter
}

var _ ops.Operator = (*Send)(nil)

// NewSend returns a Send operator writing to enc; if closer is non-nil it is
// closed at end-of-stream so the peer's Decoder observes io.EOF.
func NewSend(name string, in *ops.Stream, enc Encoder, closer io.Closer, instr core.Instrumenter) *Send {
	return &Send{name: name, in: in, enc: enc, closer: closer, instr: instr}
}

// Name implements ops.Operator.
func (s *Send) Name() string { return s.name }

// Run implements ops.Operator. When the query runs batched (the input
// stream's batch size is above one) and the link's encoder supports it
// (both built-in codecs do), whole input batches are encoded in one wire
// frame, so the serialisation boundary amortises framing and flushing
// exactly like the in-process streams amortise channel operations. At
// batch size 1 the per-tuple wire format is unchanged from unbatched
// builds; the receiving peer must be configured with the same batch mode.
func (s *Send) Run(ctx context.Context) error {
	defer func() {
		if s.closer != nil {
			_ = s.closer.Close()
		}
	}()
	var batchEnc BatchEncoder
	// Key framing off the static batch-size limit, not the live size: the
	// adaptive controller may resize either end's streams independently at
	// runtime, and both link ends must agree on the wire format for the
	// whole connection.
	if s.in.BatchSizeLimit() > 1 {
		batchEnc, _ = s.enc.(BatchEncoder)
	}
	for {
		batch, ok, err := s.in.RecvBatch(ctx)
		if err != nil {
			return fmt.Errorf("send %q: %w", s.name, err)
		}
		if !ok {
			return nil
		}
		for _, t := range batch {
			if !core.IsHeartbeat(t) {
				s.instr.OnSend(t)
			}
		}
		if batchEnc != nil {
			if err := batchEnc.EncodeBatch(batch); err != nil {
				return fmt.Errorf("send %q: %w", s.name, err)
			}
			continue
		}
		for _, t := range batch {
			if err := s.enc.Encode(t); err != nil {
				return fmt.Errorf("send %q: %w", s.name, err)
			}
		}
	}
}

// Receive reconstructs tuples arriving from another SPE instance and feeds
// them into the local query (paper §2). Every reconstructed tuple passes
// through the instrumenter's OnReceive hook, which re-types non-SOURCE
// tuples as REMOTE (§4.1).
type Receive struct {
	name  string
	out   *ops.Stream
	dec   Decoder
	instr core.Instrumenter
}

var _ ops.Operator = (*Receive)(nil)

// NewReceive returns a Receive operator reading from dec.
func NewReceive(name string, out *ops.Stream, dec Decoder, instr core.Instrumenter) *Receive {
	return &Receive{name: name, out: out, dec: dec, instr: instr}
}

// Name implements ops.Operator.
func (r *Receive) Name() string { return r.name }

// Run implements ops.Operator. Batch frames (see Send) are decoded whole
// and re-published as one stream batch; each decoded batch is flushed
// immediately, since the next frame may be arbitrarily far away. The
// framing mode mirrors Send's: batch frames only when this instance runs
// batched (the output stream's batch-size limit is above one).
func (r *Receive) Run(ctx context.Context) error {
	defer r.out.CloseSend(ctx)
	var batchDec BatchDecoder
	// Mirrors Send: framing keys off the static limit so both ends agree
	// even when adaptive controllers resize live batch sizes mid-run.
	if r.out.BatchSizeLimit() > 1 {
		batchDec, _ = r.dec.(BatchDecoder)
	}
	for {
		var batch []core.Tuple
		if batchDec != nil {
			b, err := batchDec.DecodeBatch()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("receive %q: %w", r.name, err)
			}
			batch = b
		} else {
			t, err := r.dec.Decode()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("receive %q: %w", r.name, err)
			}
			batch = []core.Tuple{t}
		}
		for _, t := range batch {
			r.instr.OnReceive(t)
			if err := r.out.Send(ctx, t); err != nil {
				return fmt.Errorf("receive %q: %w", r.name, err)
			}
		}
		if err := r.out.Flush(ctx); err != nil {
			return fmt.Errorf("receive %q: %w", r.name, err)
		}
	}
}

// AddSend adds a Send node consuming from and writing to enc (closing
// closer, if non-nil, at end-of-stream). The node uses the builder's
// instrumenter. It is declared query.Node.ReadOnly: a Send encodes what it
// receives, and under GL its OnSend writes nothing, because every tuple
// already carries the ID drawn at its creation.
func AddSend(b *query.Builder, name string, from *query.Node, enc Encoder, closer io.Closer) *query.Node {
	node := b.AddCustom(name, 1, 0, func(ins, outs []*ops.Stream) (ops.Operator, error) {
		return NewSend(name, ins[0], enc, closer, b.Instrumenter()), nil
	}).ReadOnly()
	b.Connect(from, node)
	return node
}

// AddReceive adds a Receive node producing tuples decoded from dec. The
// node uses the builder's instrumenter.
func AddReceive(b *query.Builder, name string, dec Decoder) *query.Node {
	return b.AddCustom(name, 0, 1, func(ins, outs []*ops.Stream) (ops.Operator, error) {
		return NewReceive(name, outs[0], dec, b.Instrumenter()), nil
	})
}

// Link is one directed tuple channel between two SPE instances: an encoder
// for the sending side and a decoder for the receiving side, over an
// in-memory serialising pipe by default, optionally throttled and counted.
type Link struct {
	Enc    Encoder
	Dec    Decoder
	Closer io.Closer
	// Count, when the link was built with WithCounting, reports the bytes
	// that crossed the link.
	Count *CountingWriter
	// Name labels the link in telemetry expositions (WithName); "" for
	// links nobody observes.
	Name string
}

// LinkOption configures NewLink.
type LinkOption func(*linkConfig)

type linkConfig struct {
	codec       Codec
	bufBytes    int
	bytesPerSec float64
	counting    bool
	name        string
}

// WithCodec selects the tuple codec (default BinaryCodec).
func WithCodec(c Codec) LinkOption { return func(l *linkConfig) { l.codec = c } }

// WithBuffer sets the pipe buffer size in bytes.
func WithBuffer(n int) LinkOption { return func(l *linkConfig) { l.bufBytes = n } }

// WithThrottle limits the link to bytesPerSec (0 = unlimited), modelling a
// constrained edge network.
func WithThrottle(bytesPerSec float64) LinkOption {
	return func(l *linkConfig) { l.bytesPerSec = bytesPerSec }
}

// WithCounting records the byte volume crossing the link.
func WithCounting() LinkOption { return func(l *linkConfig) { l.counting = true } }

// WithName labels the link for telemetry expositions (the harness and
// spe-node register per-link byte gauges under it).
func WithName(name string) LinkOption { return func(l *linkConfig) { l.name = name } }

// NewLink returns an in-memory serialising link between two SPE instances
// hosted by the same process. Tuples still cross a full encode/decode
// boundary, so provenance pointers die exactly as they would over TCP.
func NewLink(opts ...LinkOption) *Link {
	cfg := linkConfig{codec: BinaryCodec{}}
	for _, o := range opts {
		o(&cfg)
	}
	pipe := NewPipe(cfg.bufBytes)
	var w io.Writer = pipe
	link := &Link{Closer: pipe, Name: cfg.name}
	if cfg.counting {
		link.Count = NewCountingWriter(w)
		w = link.Count
	}
	if cfg.bytesPerSec > 0 {
		w = NewThrottledWriter(w, cfg.bytesPerSec)
	}
	link.Enc = cfg.codec.NewEncoder(w)
	link.Dec = cfg.codec.NewDecoder(pipe)
	return link
}

// NewConnLink returns a link over an established network connection (one
// direction: the caller decides which peer encodes and which decodes).
func NewConnLink(conn io.ReadWriteCloser, opts ...LinkOption) *Link {
	cfg := linkConfig{codec: BinaryCodec{}}
	for _, o := range opts {
		o(&cfg)
	}
	var w io.Writer = conn
	link := &Link{Closer: conn, Name: cfg.name}
	if cfg.counting {
		link.Count = NewCountingWriter(w)
		w = link.Count
	}
	if cfg.bytesPerSec > 0 {
		w = NewThrottledWriter(w, cfg.bytesPerSec)
	}
	link.Enc = cfg.codec.NewEncoder(w)
	link.Dec = cfg.codec.NewDecoder(conn)
	return link
}
