package transport

import (
	"context"
	"io"
	"testing"
	"time"
)

func TestTCPLinkRoundTrip(t *testing.T) {
	registerWire()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	addr := "127.0.0.1:17701"
	type accepted struct {
		link *Link
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		l, err := Listen(ctx, addr)
		ch <- accepted{l, err}
	}()
	sender, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	recv := <-ch
	if recv.err != nil {
		t.Fatal(recv.err)
	}

	const n = 200
	go func() {
		// Close on every path: a failed Encode must end the receiver's
		// Decode loop below, not leave it waiting for the test timeout.
		defer sender.Closer.Close()
		for i := 0; i < n; i++ {
			if err := sender.Enc.Encode(wt(int64(i), "k", int64(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		got, err := recv.link.Dec.Decode()
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if got.Timestamp() != int64(i) {
			t.Fatalf("tuple %d has ts %d", i, got.Timestamp())
		}
	}
	if _, err := recv.link.Dec.Decode(); err != io.EOF {
		t.Fatalf("want EOF after sender close, got %v", err)
	}
}

func TestDialRespectsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	// Nothing listens on this port.
	if _, err := Dial(ctx, "127.0.0.1:17999"); err == nil {
		t.Fatal("dial to a dead port must fail once the context expires")
	}
}

func TestListenRespectsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := Listen(ctx, "127.0.0.1:17998"); err == nil {
		t.Fatal("accept with no peer must fail once the context expires")
	}
}
