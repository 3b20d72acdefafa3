package transport

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"genealog/internal/core"
	"genealog/internal/ops"
)

type wireTuple struct {
	core.Base
	Key string
	Val int64
}

func wt(ts int64, key string, val int64) *wireTuple {
	return &wireTuple{Base: core.NewBase(ts), Key: key, Val: val}
}

func (t *wireTuple) CloneTuple() core.Tuple {
	cp := *t
	cp.ResetProvenance()
	return &cp
}

var _ WireTuple = (*wireTuple)(nil)

func (t *wireTuple) MarshalWire(buf []byte) ([]byte, error) {
	return append(AppendInt64(buf, t.Val), t.Key...), nil
}

func (t *wireTuple) UnmarshalWire(data []byte) error {
	val, key, err := ReadInt64(data)
	t.Val, t.Key = val, string(key)
	return err
}

var registerOnce sync.Once

// registerWire makes wireTuple known to both codecs, so tests can send it
// over a default (binary) link as well as an explicit gob one.
func registerWire() {
	registerOnce.Do(func() {
		Register(&wireTuple{})
		RegisterBinary(210, func() WireTuple { return &wireTuple{} })
	})
}

func TestGobCodecRoundTrip(t *testing.T) {
	registerWire()
	pipe := NewPipe(0)
	enc := GobCodec{}.NewEncoder(pipe)
	dec := GobCodec{}.NewDecoder(pipe)

	in := wt(42, "k", 7)
	in.SetStimulus(99)
	in.SetID(123)
	in.SetKind(core.KindAggregate)
	in.SetAnnotation([]uint64{1, 2, 3})
	in.SetU1(wt(0, "dangling", 0)) // must not survive the wire

	if err := enc.Encode(in); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	out, ok := got.(*wireTuple)
	if !ok {
		t.Fatalf("decoded %T, want *wireTuple", got)
	}
	if out.Timestamp() != 42 || out.Key != "k" || out.Val != 7 {
		t.Fatalf("payload lost: %+v", out)
	}
	m := out.ProvMeta()
	if m.Stimulus() != 99 || m.ID() != 123 || m.Kind() != core.KindAggregate {
		t.Fatalf("meta lost: stim=%d id=%d kind=%v", m.Stimulus(), m.ID(), m.Kind())
	}
	if len(m.Annotation()) != 3 {
		t.Fatalf("annotation lost: %v", m.Annotation())
	}
	if m.U1() != nil || m.U2() != nil || m.Next() != nil {
		t.Fatal("pointers must not survive serialisation")
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("expected EOF after close, got %v", err)
	}
}

func TestGobCodecManyTuples(t *testing.T) {
	registerWire()
	pipe := NewPipe(0)
	enc := GobCodec{}.NewEncoder(pipe)
	dec := GobCodec{}.NewDecoder(pipe)
	const n = 1000
	go func() {
		for i := 0; i < n; i++ {
			if err := enc.Encode(wt(int64(i), "k", int64(i*i))); err != nil {
				t.Error(err)
				break
			}
		}
		pipe.Close()
	}()
	for i := 0; i < n; i++ {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if got.Timestamp() != int64(i) || got.(*wireTuple).Val != int64(i*i) {
			t.Fatalf("tuple %d corrupted: %+v", i, got)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestPipeBlocksWhenFull(t *testing.T) {
	p := NewPipe(4)
	if _, err := p.Write([]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := p.Write([]byte{5, 6}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
		t.Fatal("write must block on a full pipe")
	case <-time.After(20 * time.Millisecond):
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(p, buf); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("write must resume after a read")
	}
}

func TestPipeCloseUnblocksEverything(t *testing.T) {
	p := NewPipe(1)
	if _, err := p.Write([]byte{9}); err != nil {
		t.Fatal(err)
	}
	writeErr := make(chan error, 1)
	go func() {
		_, err := p.Write([]byte{1})
		writeErr <- err
	}()
	time.Sleep(5 * time.Millisecond)
	p.Close()
	if err := <-writeErr; err != ErrPipeClosed {
		t.Fatalf("blocked write err = %v, want ErrPipeClosed", err)
	}
	// The buffered byte must still drain before EOF.
	buf := make([]byte, 1)
	if n, err := p.Read(buf); n != 1 || err != nil || buf[0] != 9 {
		t.Fatalf("read = (%d, %v, %v)", n, err, buf)
	}
	if _, err := p.Read(buf); err != io.EOF {
		t.Fatalf("read after drain = %v, want EOF", err)
	}
}

func TestSendReceiveOperators(t *testing.T) {
	registerWire()
	link := NewLink()
	instr := &core.Genealog{IDs: core.NewIDGen(1)}

	in := ops.NewStream("in", 16)
	src := wt(1, "k", 5)
	src.SetKind(core.KindSource)
	src.SetID(77)
	agg := wt(2, "k", 6)
	agg.SetKind(core.KindAggregate)
	agg.SetU1(src)
	go func() {
		in.Send(context.Background(), src)
		in.Send(context.Background(), agg)
		in.Close()
	}()

	out := ops.NewStream("out", 16)
	send := NewSend("send", in, link.Enc, link.Closer, instr)
	recv := NewReceive("recv", out, link.Dec, instr)

	errc := make(chan error, 2)
	go func() { errc <- send.Run(context.Background()) }()
	go func() { errc <- recv.Run(context.Background()) }()

	var got []core.Tuple
	for tup, ok, _ := out.Recv(context.Background()); ok; tup, ok, _ = out.Recv(context.Background()) {
		got = append(got, tup)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 {
		t.Fatalf("received %d tuples, want 2", len(got))
	}
	m0 := core.MetaOf(got[0])
	if m0.Kind() != core.KindSource || m0.ID() != 77 {
		t.Fatalf("source tuple must stay SOURCE with its ID: kind=%v id=%d", m0.Kind(), m0.ID())
	}
	m1 := core.MetaOf(got[1])
	if m1.Kind() != core.KindRemote {
		t.Fatalf("aggregate tuple must arrive as REMOTE, got %v", m1.Kind())
	}
	if m1.ID() == 0 {
		t.Fatal("sent tuples must carry an ID (OnSend assigns one if missing)")
	}
	if m1.U1() != nil {
		t.Fatal("pointers must not survive the link")
	}
}

func TestThrottledWriterLimitsRate(t *testing.T) {
	var slept time.Duration
	now := time.Unix(0, 0)
	tw := NewThrottledWriter(io.Discard, 1000) // 1000 B/s, burst 100 B
	tw.now = func() time.Time { return now }
	tw.sleep = func(d time.Duration) { slept += d; now = now.Add(d) }

	// First 100 bytes ride the burst; the next 1000 must cost ~1 s.
	if _, err := tw.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if slept < 900*time.Millisecond || slept > 1100*time.Millisecond {
		t.Fatalf("slept %v, want ~1s", slept)
	}
}

func TestThrottledWriterUnlimited(t *testing.T) {
	tw := NewThrottledWriter(io.Discard, 0)
	tw.sleep = func(time.Duration) { t.Fatal("unlimited writer must not sleep") }
	if _, err := tw.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
}

func TestCountingWriter(t *testing.T) {
	cw := NewCountingWriter(io.Discard)
	cw.Write(make([]byte, 10))
	cw.Write(make([]byte, 32))
	if cw.Bytes() != 42 {
		t.Fatalf("counted %d bytes, want 42", cw.Bytes())
	}
}

func TestLinkWithCountingAndThrottle(t *testing.T) {
	registerWire()
	link := NewLink(WithCounting(), WithThrottle(100e6), WithBuffer(1<<16))
	if err := link.Enc.Encode(wt(1, "k", 1)); err != nil {
		t.Fatal(err)
	}
	link.Closer.Close()
	if _, err := link.Dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if link.Count.Bytes() == 0 {
		t.Fatal("counting link must record traffic")
	}
}
