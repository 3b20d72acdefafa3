package transport

import (
	"errors"
	"io"
	"sync"
)

// ErrPipeClosed is returned by writes to a closed pipe.
var ErrPipeClosed = errors.New("transport: pipe closed")

// Pipe is an in-memory byte stream with an internal buffer: writes block
// once the buffer is full, reads block while it is empty, and reads observe
// io.EOF after Close once the buffer drains. Unlike io.Pipe it is buffered,
// so a Send operator is not lock-stepped with the matching Receive.
//
// Everything written still crosses a real serialisation boundary — a Pipe
// carries bytes, not object references — so intra-machine deployments of
// multiple SPE instances exercise the same REMOTE-tuple code paths as TCP.
type Pipe struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	// buf is a ring: the n unread bytes start at head and wrap around the
	// end. It grows by doubling, up to max, only when a write needs room.
	buf    []byte
	head   int
	n      int
	max    int
	closed bool
}

// DefaultPipeBuffer is the pipe buffer size used when none is given.
const DefaultPipeBuffer = 1 << 20

// minPipeRing is the ring's first allocation (or max, if smaller).
const minPipeRing = 4 << 10

// NewPipe returns a pipe with the given buffer size (<= 0 selects
// DefaultPipeBuffer).
func NewPipe(size int) *Pipe {
	if size <= 0 {
		size = DefaultPipeBuffer
	}
	p := &Pipe{max: size}
	p.notFull = sync.NewCond(&p.mu)
	p.notEmpty = sync.NewCond(&p.mu)
	return p
}

var (
	_ io.WriteCloser = (*Pipe)(nil)
	_ io.Reader      = (*Pipe)(nil)
)

// Write implements io.Writer; it blocks while the buffer is full.
func (p *Pipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	written := 0
	for written < len(b) {
		for p.n >= p.max && !p.closed {
			p.notFull.Wait()
		}
		if p.closed {
			return written, ErrPipeClosed
		}
		n := min(p.max-p.n, len(b)-written)
		p.grow(p.n + n)
		// The free space starts at the tail and may wrap; grow made it at
		// least n bytes, so the two copies never reach unread data.
		tail := (p.head + p.n) % len(p.buf)
		c := copy(p.buf[tail:], b[written:written+n])
		copy(p.buf, b[written+c:written+n])
		p.n += n
		written += n
		p.notEmpty.Broadcast()
	}
	return written, nil
}

// grow makes the ring hold at least need bytes (need <= max), doubling it
// and moving the unread bytes to its start.
func (p *Pipe) grow(need int) {
	if need <= len(p.buf) {
		return
	}
	size := max(len(p.buf), min(minPipeRing, p.max))
	for size < need {
		size *= 2
	}
	buf := make([]byte, min(size, p.max))
	c := copy(buf, p.buf[p.head:min(p.head+p.n, len(p.buf))])
	copy(buf[c:p.n], p.buf)
	p.buf, p.head = buf, 0
}

// Read implements io.Reader; it blocks while the buffer is empty and the
// pipe is open.
func (p *Pipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 {
		if p.closed {
			return 0, io.EOF
		}
		p.notEmpty.Wait()
	}
	n := min(len(b), p.n)
	c := copy(b[:n], p.buf[p.head:])
	copy(b[c:n], p.buf)
	p.head = (p.head + n) % len(p.buf)
	p.n -= n
	if p.n == 0 {
		p.head = 0
	}
	p.notFull.Broadcast()
	return n, nil
}

// Close implements io.Closer: readers drain the buffer and then observe
// io.EOF; blocked writers fail with ErrPipeClosed.
func (p *Pipe) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.notFull.Broadcast()
	p.notEmpty.Broadcast()
	return nil
}
