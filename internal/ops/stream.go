// Package ops implements the standard data-streaming operators of the paper's
// §2 — Source, Sink, Map, Filter, Multiplex, Union, Aggregate and Join — on
// top of bounded Go channels, with deterministic timestamp-sorted merging of
// multi-input operators. Provenance side effects are delegated to a
// core.Instrumenter so the same operator code serves the NP, GL and BL
// evaluation modes.
package ops

import (
	"context"
	"fmt"
	"sync/atomic"

	"genealog/internal/core"
	"genealog/internal/telemetry"
)

// DefaultStreamCapacity is the buffering budget used when a stream is created
// without an explicit capacity. Streams are the inter-operator queues of an
// SPE instance (paper §2); they need slack for pipelining, unlike the
// signalling channels for which idiomatic Go prefers capacity one or none.
// The capacity counts buffered *tuples*, not batches, so backpressure engages
// at the same depth whatever the batch size — and keeps doing so when the
// adaptive controller resizes batches mid-run.
const DefaultStreamCapacity = 256

// Batch is a vector of tuples moved across a stream in one channel
// operation. Batches are never empty and preserve the stream's timestamp
// order; the batch boundaries themselves carry no meaning — consumers may
// observe different boundaries than the producer created (a consumer-side
// remainder after per-tuple Recv calls is returned as a smaller batch).
type Batch []core.Tuple

// Stream is a named, bounded, timestamp-sorted sequence of tuples connecting
// exactly one producer operator to exactly one consumer operator. The
// producer closes the stream to signal end-of-stream.
//
// Tuples cross the underlying channel in batches of up to the stream's batch
// size, amortising channel synchronisation across the batch (the framework
// overhead the paper's small-constant-per-tuple claim competes with). A
// batch is flushed downstream when it reaches the batch size, when the
// producer calls Flush — operators flush whenever they would otherwise block
// waiting for input, so a batch never stalls a downstream merge that is
// ready to consume it — and on CloseSend (flush-on-close). Within a pending
// batch, a watermark heartbeat is coalesced into whatever follows it: a
// later heartbeat replaces it, and a data tuple at or past its event time
// subsumes it (both advertise at least the same watermark), so batching
// strictly reduces heartbeat traffic.
type Stream struct {
	name string
	ch   chan Batch

	// max is the live batch size: the flush threshold every Send/SendRun/
	// SendGather call loads exactly once per flush decision. It is atomic so
	// the adaptive controller (internal/adapt) can resize a running stream;
	// limit is the static ceiling SetBatchSize clamps against, fixed at
	// construction (or raised by SetBatchSizeLimit before the query runs) so
	// decisions that must not flap with the live size — wire batch framing,
	// frame-bound validation — key off it instead.
	max   atomic.Int64
	limit int

	// capTuples bounds the tuples buffered in the channel; buffered tracks
	// them (producer adds at publish, consumer subtracts at dequeue) and
	// space wakes a producer blocked on a full stream. The channel's slot
	// capacity equals capTuples — every batch holds at least one tuple, so
	// the tuple budget is the binding constraint and the channel send after
	// an admitted budget reservation never blocks.
	capTuples int
	buffered  atomic.Int64
	space     chan struct{}

	// pending is the producer-side accumulating batch; owned by the single
	// producer goroutine, so it needs no lock. nextCap adapts the capacity
	// of each fresh pending batch to the size of the last flushed one, so a
	// stream that flushes small partial batches (a starving merge, a sparse
	// filter) does not allocate full-size vectors for them.
	pending Batch
	nextCap int

	// free recycles drained batch backing arrays from the consumer back to
	// the producer (synchronised by the channel itself), so a transport
	// whose consumer keeps pace allocates nothing per batch. The list holds
	// only a few batches: when a consumer drains a backlog it runs dry, and
	// the producer then allocates a fresh batch per flush — per tuple at
	// batch size 1.
	free chan Batch

	// rq is the consumer-side dequeued batch being drained by Recv; owned by
	// the single consumer goroutine. lent is the batch most recently handed
	// out by RecvBatch; it is reclaimed at the consumer's next receive call,
	// by which point the operator loop that borrowed it has fully processed
	// it (returned batches are valid only until that next call).
	rq    Batch
	rqi   int
	lent  Batch
	ended bool

	// telem, when non-nil, receives one producer-side note per published
	// batch and one consumer-side note per dequeued batch. It is the
	// telemetry subsystem's only hot-path presence: disabled streams pay a
	// single nil check per batch, never anything per tuple.
	telem *telemetry.StreamStats
}

// NewStream returns an unbatched stream (batch size 1) with the given name
// and capacity (capacity <= 0 selects DefaultStreamCapacity): every Send
// publishes immediately, the pre-batching behaviour.
func NewStream(name string, capacity int) *Stream {
	return NewBatchedStream(name, capacity, 1)
}

// NewBatchedStream returns a stream with the given name, buffering capacity
// (in tuples; <= 0 selects DefaultStreamCapacity) and batch size (<= 0
// selects 1, i.e. unbatched).
func NewBatchedStream(name string, capacity, batch int) *Stream {
	if capacity <= 0 {
		capacity = DefaultStreamCapacity
	}
	if batch <= 0 {
		batch = 1
	}
	s := &Stream{
		name:      name,
		ch:        make(chan Batch, capacity),
		limit:     batch,
		capTuples: capacity,
		space:     make(chan struct{}, 1),
		nextCap:   batch,
		free:      make(chan Batch, 8),
	}
	s.max.Store(int64(batch))
	return s
}

// Name returns the stream's name.
func (s *Stream) Name() string { return s.name }

// PendingLen returns the number of tuples accumulated in the producer-side
// pending batch (0 right after a flush). Only the producer may call it.
func (s *Stream) PendingLen() int { return len(s.pending) }

// BatchSize returns the stream's current batch size. Safe from any
// goroutine; the adaptive controller may change it at any time.
func (s *Stream) BatchSize() int { return int(s.max.Load()) }

// SetBatchSize resizes the stream's live batch size, clamped to
// [1, BatchSizeLimit]. Safe from any goroutine at any time: the producer
// loads the size once per flush decision, so a resize takes effect at its
// next Send/Flush. An already-accumulated pending batch larger than the new
// size flushes whole on the next Send — batch boundaries carry no meaning,
// so resizing never changes what is delivered, only how it is grouped.
func (s *Stream) SetBatchSize(n int) {
	if n < 1 {
		n = 1
	}
	if n > s.limit {
		n = s.limit
	}
	s.max.Store(int64(n))
}

// BatchSizeLimit returns the static ceiling SetBatchSize clamps against.
// Unlike the live size it never changes while the query runs, so both ends
// of a transport link can key their wire framing off it.
func (s *Stream) BatchSizeLimit() int { return s.limit }

// SetBatchSizeLimit raises (or lowers) the resize ceiling. Call it before
// the query starts (query.Build does, for adaptive queries); it is not
// synchronised with a running producer.
func (s *Stream) SetBatchSizeLimit(n int) {
	if n < 1 {
		n = 1
	}
	s.limit = n
	if int(s.max.Load()) > n {
		s.max.Store(int64(n))
	}
}

// SetTelemetry attaches per-batch counters to the stream. Call it before
// the query starts (query.Build does); attaching mid-run would race the
// producer and consumer goroutines.
func (s *Stream) SetTelemetry(st *telemetry.StreamStats) { s.telem = st }

// QueueLen returns the number of tuples currently buffered in the stream's
// channel. Safe to call from any goroutine at any time; telemetry samples
// it at scrape time and the adaptive controller reads occupancy from it.
func (s *Stream) QueueLen() int { return int(s.buffered.Load()) }

// QueueCap returns the stream's buffering capacity, in tuples.
func (s *Stream) QueueCap() int { return s.capTuples }

// Send delivers t downstream, blocking while the stream is full. With a
// batch size above one, t is first accumulated into the pending batch and
// only published when the batch fills (or on Flush/CloseSend). It fails
// with ctx.Err() only if the query is cancelled while the stream is full:
// like Recv it prefers progress over reporting cancellation, so after a
// cancellation operators drain deterministically — a shard worker that can
// still move tuples does so until a peer that noticed the cancellation
// closes or stops consuming its stream — instead of racing ctx.Done against
// a ready channel.
func (s *Stream) Send(ctx context.Context, t core.Tuple) error {
	if n := len(s.pending); n > 0 && core.IsHeartbeat(s.pending[n-1]) && s.pending[n-1].Timestamp() <= t.Timestamp() {
		// A trailing pending heartbeat is subsumed by anything at or past
		// its event time: the successor advertises at least the same
		// watermark.
		s.pending[n-1] = t
	} else {
		if s.pending == nil {
			select {
			case b := <-s.free:
				s.pending = b
			default:
				s.pending = make(Batch, 0, s.nextCap)
			}
		}
		s.pending = append(s.pending, t)
	}
	if len(s.pending) >= int(s.max.Load()) {
		return s.Flush(ctx)
	}
	return nil
}

// SendRun delivers a run of timestamp-sorted data tuples in one call,
// exactly as the equivalent sequence of Send calls would — same pending
// accumulation, same flush boundaries, same coalescing of a trailing
// pending heartbeat into the run's first tuple — minus the per-tuple call
// and bookkeeping overhead. The run must not contain heartbeats. The
// vectorized ColChain uses it to deliver each materialised survivor
// stretch; tuple-at-a-time producers keep Send.
func (s *Stream) SendRun(ctx context.Context, run []core.Tuple) error {
	if len(run) == 0 {
		return nil
	}
	if n := len(s.pending); n > 0 && core.IsHeartbeat(s.pending[n-1]) && s.pending[n-1].Timestamp() <= run[0].Timestamp() {
		s.pending[n-1] = run[0]
		run = run[1:]
	}
	max := int(s.max.Load())
	for len(run) > 0 {
		if len(s.pending) >= max {
			if err := s.Flush(ctx); err != nil {
				return err
			}
		}
		if s.pending == nil {
			select {
			case b := <-s.free:
				s.pending = b
			default:
				s.pending = make(Batch, 0, s.nextCap)
			}
		}
		take := max - len(s.pending)
		if take > len(run) {
			take = len(run)
		}
		s.pending = append(s.pending, run[:take]...)
		run = run[take:]
	}
	if len(s.pending) >= max {
		return s.Flush(ctx)
	}
	return nil
}

// SendGather delivers rows[sel[0]], rows[sel[1]], ... exactly as the
// equivalent sequence of Send calls would, gathering the selected tuples
// straight into the pending batch with no intermediate buffer. The same
// contract as SendRun applies: selected tuples must be timestamp-sorted
// data tuples, never heartbeats. The vectorized ColChain uses it to
// materialise filter survivors from a run's selection vector.
func (s *Stream) SendGather(ctx context.Context, rows []core.Tuple, sel []int) error {
	if len(sel) == 0 {
		return nil
	}
	if n := len(s.pending); n > 0 && core.IsHeartbeat(s.pending[n-1]) && s.pending[n-1].Timestamp() <= rows[sel[0]].Timestamp() {
		s.pending[n-1] = rows[sel[0]]
		sel = sel[1:]
	}
	max := int(s.max.Load())
	for len(sel) > 0 {
		if len(s.pending) >= max {
			if err := s.Flush(ctx); err != nil {
				return err
			}
		}
		if s.pending == nil {
			select {
			case b := <-s.free:
				s.pending = b
			default:
				s.pending = make(Batch, 0, s.nextCap)
			}
		}
		take := max - len(s.pending)
		if take > len(sel) {
			take = len(sel)
		}
		for _, i := range sel[:take] {
			s.pending = append(s.pending, rows[i])
		}
		sel = sel[take:]
	}
	if len(s.pending) >= max {
		return s.Flush(ctx)
	}
	return nil
}

// Flush publishes the pending batch, if any. Operators call it after
// processing each input batch and before blocking for more input, so every
// tuple an operator has produced is visible downstream whenever the
// operator is idle — the liveness property deterministic multi-input merges
// rely on.
func (s *Stream) Flush(ctx context.Context) error {
	if len(s.pending) == 0 {
		return nil
	}
	b := s.pending
	s.pending = nil
	max := int(s.max.Load())
	// The next batch will likely be about this size; cap the fresh
	// allocation accordingly (append still grows it when traffic bursts
	// past the estimate). Clamping against the live size — not the size at
	// construction — is what makes a downward resize stick: a shrunken
	// stream stops sizing fresh arrays for the old batch size.
	s.nextCap = len(b)
	if lo := min(4, max); s.nextCap < lo {
		s.nextCap = lo
	}
	if s.nextCap > max {
		s.nextCap = max
	}
	// Reserve tuple budget before publishing. A batch is admitted when it
	// fits under capTuples — or, so a batch larger than the whole capacity
	// can still make progress, when the stream is empty. The channel has
	// one slot per capacity tuple and every batch holds at least one tuple,
	// so the send after an admitted reservation never blocks.
	n := int64(len(b))
	for {
		cur := s.buffered.Load()
		if cur == 0 || cur+n <= int64(s.capTuples) {
			if s.buffered.CompareAndSwap(cur, cur+n) {
				break
			}
			continue
		}
		// Drain a stale wake-up signal, then wait for the consumer.
		select {
		case <-s.space:
			continue
		default:
		}
		select {
		case <-s.space:
		case <-ctx.Done():
			return fmt.Errorf("stream %q: send: %w", s.name, ctx.Err())
		}
	}
	if st := s.telem; st != nil {
		// Before the send: once published, the consumer may recycle the
		// batch's backing array concurrently.
		st.NoteFlush(b, max)
	}
	s.ch <- b
	return nil
}

// Recv returns the next tuple. ok is false when the stream has ended.
// Buffered tuples and end-of-stream are preferred over reporting
// cancellation (see Send); ctx.Err() is returned only when the stream is
// empty and still open.
func (s *Stream) Recv(ctx context.Context) (t core.Tuple, ok bool, err error) {
	if s.rqi < len(s.rq) {
		t = s.rq[s.rqi]
		s.rq[s.rqi] = nil
		s.rqi++
		if s.rqi == len(s.rq) {
			s.recycle(s.rq)
			s.rq, s.rqi = nil, 0
		}
		return t, true, nil
	}
	b, ok, err := s.recvBatch(ctx)
	if !ok || err != nil {
		return nil, false, err
	}
	t, b[0] = b[0], nil
	if len(b) == 1 {
		s.recycle(b)
	} else {
		s.rq, s.rqi = b, 1
	}
	return t, true, nil
}

// RecvBatch returns the next batch of tuples — the remainder of a batch
// partially drained by Recv, or the next published batch. ok is false when
// the stream has ended. Cancellation semantics match Recv. The returned
// batch is only valid until the consumer's next Recv/RecvBatch/CanRecv
// call, which reclaims its backing array for reuse; operator loops fully
// process one batch before requesting the next, so they never observe the
// reuse.
func (s *Stream) RecvBatch(ctx context.Context) (b Batch, ok bool, err error) {
	if s.rqi < len(s.rq) {
		b = s.rq[s.rqi:]
		s.lent, s.rq, s.rqi = s.rq, nil, 0
		return b, true, nil
	}
	b, ok, err = s.recvBatch(ctx)
	if ok {
		s.lent = b
	}
	return b, ok, err
}

// recvBatch dequeues the next published batch, blocking while the stream is
// empty and open. It first reclaims the batch lent out by the previous
// RecvBatch, which the operator loop has finished with by now.
func (s *Stream) recvBatch(ctx context.Context) (b Batch, ok bool, err error) {
	if s.lent != nil {
		s.recycle(s.lent)
		s.lent = nil
	}
	if s.ended {
		return nil, false, nil
	}
	select {
	case b, ok = <-s.ch:
		if !ok {
			s.ended = true
			return nil, false, nil
		}
		s.release(b)
		return b, true, nil
	default:
	}
	select {
	case b, ok = <-s.ch:
		if !ok {
			s.ended = true
			return nil, false, nil
		}
		s.release(b)
		return b, true, nil
	case <-ctx.Done():
		return nil, false, fmt.Errorf("stream %q: recv: %w", s.name, ctx.Err())
	}
}

// release returns a dequeued batch's tuple budget to the producer and notes
// the dequeue for telemetry. Called at every dequeue point — the batch has
// left the channel, so its tuples no longer occupy buffering capacity even
// though the consumer is still draining them.
func (s *Stream) release(b Batch) {
	s.buffered.Add(-int64(len(b)))
	select {
	case s.space <- struct{}{}:
	default:
	}
	if st := s.telem; st != nil {
		st.NoteRecv(b)
	}
}

// recycle clears a drained batch and offers its backing array back to the
// producer. Slots at or past len are nil by construction (fresh arrays are
// zeroed and recycles clear the used prefix), so clearing the used prefix
// keeps the whole array reference-free.
func (s *Stream) recycle(b Batch) {
	if cap(b) == 0 {
		return
	}
	for i := range b {
		b[i] = nil
	}
	select {
	case s.free <- b[:0]:
	default:
	}
}

// CanRecv reports whether Recv (or RecvBatch) would return without blocking
// on the channel: a batch is being drained, a published batch is waiting, or
// the stream has ended. Multi-input merges use it to flush their own output
// before a refill that would block.
func (s *Stream) CanRecv() bool {
	if s.rqi < len(s.rq) || s.ended {
		return true
	}
	if s.lent != nil {
		s.recycle(s.lent)
		s.lent = nil
	}
	select {
	case b, ok := <-s.ch:
		if !ok {
			s.ended = true
			return true
		}
		s.release(b)
		s.rq, s.rqi = b, 0
		return true
	default:
		return false
	}
}

// CloseSend flushes the pending batch and signals end-of-stream to the
// consumer (flush-on-close). Only the producer may call it, exactly once.
// If the query is cancelled while the stream is full, the pending batch is
// dropped — the consumer is aborting anyway — so close never blocks past
// cancellation.
func (s *Stream) CloseSend(ctx context.Context) {
	_ = s.Flush(ctx)
	close(s.ch)
}

// Close signals end-of-stream without flushing; callers that batch (batch
// size > 1) must use CloseSend. It remains for producers that bypass Send,
// e.g. tests pre-filling a stream.
func (s *Stream) Close() { close(s.ch) }

// Operator is a runnable query vertex. Run consumes the operator's input
// streams until they end (or ctx is cancelled), produces output tuples, and
// closes every output stream before returning. Run is called exactly once,
// on its own goroutine.
type Operator interface {
	Name() string
	Run(ctx context.Context) error
}

// closeAll flush-closes every stream in outs; operators defer it so
// downstream consumers always observe end-of-stream, even on error paths.
func closeAll(ctx context.Context, outs []*Stream) {
	for _, s := range outs {
		s.CloseSend(ctx)
	}
}
