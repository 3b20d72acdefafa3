package ops

import (
	"context"
	"strconv"
	"testing"

	"genealog/internal/core"
)

// vTuple is the test tuple: an event time, a group key and a value.
type vTuple struct {
	core.Base
	Key string
	Val int64
}

func vt(ts int64, key string, val int64) *vTuple {
	return &vTuple{Base: core.NewBase(ts), Key: key, Val: val}
}

func (t *vTuple) CloneTuple() core.Tuple {
	cp := *t
	cp.ResetProvenance()
	return &cp
}

// notCloneable carries Meta but no CloneTuple.
type notCloneable struct{ core.Base }

// runOps runs the given operators concurrently and fails the test on error.
func runOps(t *testing.T, operators ...Operator) {
	t.Helper()
	errc := make(chan error, len(operators))
	for _, op := range operators {
		go func(op Operator) { errc <- op.Run(context.Background()) }(op)
	}
	for range operators {
		if err := <-errc; err != nil {
			t.Fatalf("operator failed: %v", err)
		}
	}
}

// feed sends the tuples on a fresh stream and closes it.
func feed(tuples ...core.Tuple) *Stream {
	return feedBatched(1, tuples...)
}

// feedBatched sends the tuples on a fresh stream with the given batch size
// and closes it.
func feedBatched(batch int, tuples ...core.Tuple) *Stream {
	s := NewBatchedStream("in", len(tuples)+1, batch)
	ctx := context.Background()
	for _, t := range tuples {
		if err := s.Send(ctx, t); err != nil {
			panic(err)
		}
	}
	s.CloseSend(ctx)
	return s
}

// drain collects everything from s (the producer must already be running or
// the stream pre-filled). It consumes through Recv so the stream's tuple
// budget is released as it goes — a raw channel read would leave a running
// producer blocked on backpressure.
func drain(t *testing.T, s *Stream) []core.Tuple {
	t.Helper()
	var out []core.Tuple
	for _, tup := range drainAll(t, s) {
		if core.IsHeartbeat(tup) {
			continue
		}
		out = append(out, tup)
	}
	return out
}

// drainAll collects everything from s, watermark heartbeats included.
func drainAll(t *testing.T, s *Stream) []core.Tuple {
	t.Helper()
	ctx := context.Background()
	var out []core.Tuple
	for {
		tup, ok, err := s.Recv(ctx)
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, tup)
	}
}

// collectSink returns a sink function appending to the returned slice. The
// slice must only be read after the query has drained.
func collectSink() (*[]core.Tuple, SinkFunc) {
	var out []core.Tuple
	return &out, func(t core.Tuple) error {
		out = append(out, t)
		return nil
	}
}

func timestamps(ts []core.Tuple) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = t.Timestamp()
	}
	return out
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seq builds n vTuples with timestamps start, start+step, ...
func seq(start, step int64, n int, key string) []core.Tuple {
	out := make([]core.Tuple, n)
	for i := range out {
		out[i] = vt(start+int64(i)*step, key, int64(i))
	}
	return out
}

// sumFold folds a window by summing Val; the output key is the group key.
func sumFold(window []core.Tuple, start, end int64, key string) core.Tuple {
	var sum int64
	for _, w := range window {
		sum += w.(*vTuple).Val
	}
	out := vt(0, key, sum)
	return out
}

// countFold counts window tuples.
func countFold(window []core.Tuple, start, end int64, key string) core.Tuple {
	return vt(0, key, int64(len(window)))
}

func keyOf(t core.Tuple) string { return t.(*vTuple).Key }

func valStr(v int64) string { return strconv.FormatInt(v, 10) }

// newAggregate builds an Aggregate on the spec derived from its row closures.
func newAggregate(name string, in, out *Stream, spec AggregateSpec, instr core.Instrumenter) *ColAggregate {
	return NewColAggregate(name, in, out, spec, DeriveAggColSpec(spec), nil, nil, instr)
}

// newJoin builds a Join on the spec derived from its row predicate.
func newJoin(name string, left, right, out *Stream, spec JoinSpec, instr core.Instrumenter) *ColJoin {
	return NewColJoin(name, left, right, out, spec, DeriveJoinColSpec(spec), nil, nil, instr)
}
