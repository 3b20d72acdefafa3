package transport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// TestPipeRingMatchesReference streams random bytes through pipes with small
// buffers, in random write and read sizes on two goroutines, so the ring
// wraps and grows at every offset; what the reader sees must equal what the
// writer wrote, kept in a bytes.Buffer.
func TestPipeRingMatchesReference(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7, 64, 1000, 5000} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(size)))
			p := NewPipe(size)
			var want bytes.Buffer
			writes := make([][]byte, 300)
			for i := range writes {
				b := make([]byte, rng.Intn(3*size+20))
				rng.Read(b)
				writes[i] = b
				want.Write(b)
			}
			readSizes := make([]int, 4096)
			for i := range readSizes {
				readSizes[i] = 1 + rng.Intn(2*size+10)
			}

			errc := make(chan error, 1)
			go func() {
				for _, b := range writes {
					if n, err := p.Write(b); err != nil || n != len(b) {
						errc <- errors.Join(err, io.ErrShortWrite)
						return
					}
				}
				errc <- p.Close()
			}()
			var got bytes.Buffer
			for i := 0; ; i++ {
				buf := make([]byte, readSizes[i%len(readSizes)])
				n, err := p.Read(buf)
				got.Write(buf[:n])
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("size %d seed %d: read: %v", size, seed, err)
				}
			}
			if err := <-errc; err != nil {
				t.Fatalf("size %d seed %d: write: %v", size, seed, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("size %d seed %d: read %d bytes differing from the %d written", size, seed, got.Len(), want.Len())
			}
			if len(p.buf) > size {
				t.Fatalf("size %d seed %d: ring grew to %d bytes", size, seed, len(p.buf))
			}
		}
	}
}
