package provenance

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"genealog/internal/core"
	"genealog/internal/ops"
	"genealog/internal/query"
)

// addScanMU is the multi-stream unfolder as it was before the Join was
// keyed: the same Fig. 8 assembly around a predicate-only Join, which scans
// the whole opposite window per record. It survives as the reference the
// hash-probed AddMU must agree with.
func addScanMU(b *query.Builder, name string, derived *query.Node, upstreams []*query.Node, cfg MUConfig) *query.Node {
	up := b.AddUnion(name + ".up")
	for _, u := range upstreams {
		b.Connect(u, up)
	}
	mux := b.AddMultiplex(name + ".mux")
	b.Connect(derived, mux)
	needJoin := b.AddFilter(name+".remote", func(t core.Tuple) bool {
		return t.(*Record).OrigKind != core.KindSource
	})
	passThrough := b.AddFilter(name+".local", func(t core.Tuple) bool {
		return t.(*Record).OrigKind == core.KindSource
	})
	b.Connect(mux, needJoin)
	b.Connect(mux, passThrough)
	join := b.AddJoin(name+".join", ops.JoinSpec{
		WS: cfg.Window,
		Predicate: func(l, r core.Tuple) bool {
			return l.(*Record).OrigID == r.(*Record).SinkID
		},
		Combine: func(l, r core.Tuple) core.Tuple {
			d, u := l.(*Record), r.(*Record)
			return &Record{Ts: max(d.Ts, u.Ts), SinkID: d.SinkID, Sink: d.Sink,
				OrigID: u.OrigID, OrigTs: u.OrigTs, OrigKind: u.OrigKind, Orig: u.Orig}
		},
	})
	b.ConnectPort(needJoin, join, query.PortLeft)
	b.ConnectPort(up, join, query.PortRight)
	out := b.AddUnion(name + ".out")
	b.Connect(join, out)
	b.Connect(passThrough, out)
	return out
}

// idTuple is an evTuple carrying the given ID meta-attribute.
func idTuple(ts int64, id uint64) *evTuple {
	t := ev(ts, "", int64(id))
	t.SetID(id)
	return t
}

// unfoldedStreams is one random MU input: the derived stream and two
// upstream streams, each timestamp-sorted, plus the source IDs a correct MU
// must deliver per derived sink tuple.
type unfoldedStreams struct {
	derived []*Record
	ups     [2][]*Record
	want    map[uint64][]uint64
}

// randomUnfolded draws upstream sink tuples over a short event-time range
// (so timestamps tie), each unfolding into 1-3 SOURCE tuples, and derived
// sink tuples that each reference several upstream tuples within window —
// one upstream tuple serving several derived ones, as under sliding windows
// — mixed with SOURCE originating tuples that pass the MU unchanged.
func randomUnfolded(rng *rand.Rand, window int64) unfoldedStreams {
	s := unfoldedStreams{want: make(map[uint64][]uint64)}
	nextID := uint64(1)
	newID := func() uint64 { nextID++; return nextID }
	type upTuple struct {
		id      uint64
		ts      int64
		sources []uint64
	}
	var upTuples []upTuple
	const span = 40
	for ts := int64(0); ts < span; ts++ {
		for n := rng.Intn(4); n > 0; n-- {
			u := upTuple{id: newID(), ts: ts}
			sink := idTuple(ts, u.id)
			side := rng.Intn(2)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				src := idTuple(ts-int64(rng.Intn(3)), newID())
				u.sources = append(u.sources, src.ID())
				s.ups[side] = append(s.ups[side], &Record{Ts: ts, SinkID: u.id, Sink: sink,
					OrigID: src.ID(), OrigTs: src.Timestamp(), OrigKind: core.KindSource, Orig: src})
			}
			upTuples = append(upTuples, u)
		}
	}
	for ts := int64(0); ts < span; ts++ {
		for n := rng.Intn(3); n > 0; n-- {
			id := newID()
			sink := idTuple(ts, id)
			want := map[uint64]bool{}
			for _, u := range upTuples {
				if u.ts > ts || u.ts < ts-window || rng.Intn(3) != 0 {
					continue
				}
				s.derived = append(s.derived, &Record{Ts: ts, SinkID: id, Sink: sink,
					OrigID: u.id, OrigTs: u.ts, OrigKind: core.KindRemote, Orig: idTuple(u.ts, u.id)})
				for _, src := range u.sources {
					want[src] = true
				}
			}
			for k := rng.Intn(3); k > 0; k-- {
				src := idTuple(ts, newID())
				want[src.ID()] = true
				s.derived = append(s.derived, &Record{Ts: ts, SinkID: id, Sink: sink,
					OrigID: src.ID(), OrigTs: ts, OrigKind: core.KindSource, Orig: src})
			}
			if len(want) == 0 {
				continue
			}
			for src := range want {
				s.want[id] = append(s.want[id], src)
			}
			sort.Slice(s.want[id], func(i, j int) bool { return s.want[id][i] < s.want[id][j] })
		}
	}
	return s
}

// runMU feeds the streams through the given MU assembly into a collector
// and returns the sorted source IDs delivered per derived sink tuple.
func runMU(t *testing.T, s unfoldedStreams, window int64, vectorize bool,
	addMU func(*query.Builder, string, *query.Node, []*query.Node, MUConfig) *query.Node) map[uint64][]uint64 {
	t.Helper()
	b := query.New("mu", query.WithInstrumenter(&core.Genealog{IDs: core.NewIDGen(3)}), query.WithVectorize(vectorize))
	source := func(name string, recs []*Record) *query.Node {
		return b.AddSource(name, func(ctx context.Context, emit func(core.Tuple) error) error {
			for _, r := range recs {
				// Records carry no meta, so the engine writes nothing on
				// them and every run can emit the same objects.
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		})
	}
	mu := addMU(b, "mu", source("derived", s.derived),
		[]*query.Node{source("up0", s.ups[0]), source("up1", s.ups[1])}, MUConfig{Window: window})
	got := make(map[uint64][]uint64)
	AddCollectorHorizon(b, "prov", mu, 2*window, func(r Result) {
		id := core.MetaOf(r.Sink).ID()
		if _, dup := got[id]; dup {
			t.Errorf("sink %d delivered twice", id)
		}
		ids := make([]uint64, len(r.Sources))
		for i, src := range r.Sources {
			ids[i] = core.MetaOf(src).ID()
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		got[id] = ids
	})
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Run(ctx); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestKeyedMUMatchesScanMU: on random unfolded streams the hash-probed MU —
// columnar and in its row fallback — delivers exactly the provenance the
// predicate-scan MU does, which is the provenance the streams were built to
// carry.
func TestKeyedMUMatchesScanMU(t *testing.T) {
	const window = 5
	for seed := int64(1); seed <= 20; seed++ {
		s := randomUnfolded(rand.New(rand.NewSource(seed)), window)
		ref := runMU(t, s, window, true, addScanMU)
		if !reflect.DeepEqual(ref, s.want) {
			t.Fatalf("seed %d: scan MU delivered %v, streams carry %v", seed, ref, s.want)
		}
		for _, vectorize := range []bool{true, false} {
			if got := runMU(t, s, window, vectorize, AddMU); !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d, vectorize %v: keyed MU delivered %v, scan MU %v", seed, vectorize, got, ref)
			}
		}
	}
}

// scanCollector is the collector as it was before flushes popped a prefix:
// every flush walks every pending group. It is the reference the
// prefix-flushing Collector must reproduce result for result.
type scanCollector struct {
	horizon int64
	emit    func(Result) error
	groups  map[any]*group
	order   []any
}

// anyKey boxes a tuple's identity the way the scanning collector keyed its
// maps: the ID when there is one, the reference otherwise.
func anyKey(id uint64, t core.Tuple) any {
	if id != 0 {
		return id
	}
	return t
}

func (c *scanCollector) add(rec *Record) error {
	if c.groups == nil {
		c.groups = make(map[any]*group)
	}
	key := anyKey(rec.SinkID, rec.Sink)
	g := c.groups[key]
	if g == nil {
		g = &group{sink: rec.Sink, ts: rec.Timestamp()}
		c.groups[key] = g
		c.order = append(c.order, key)
	}
	if _, dup := g.seen.get(rec.OrigID, rec.Orig); dup {
		return nil
	}
	g.seen.put(rec.OrigID, rec.Orig, struct{}{})
	g.sources = append(g.sources, rec.Orig)
	return c.flushBefore(rec.Timestamp() - c.horizon)
}

func (c *scanCollector) flushBefore(ts int64) error {
	var kept []any
	var err error
	for _, key := range c.order {
		g := c.groups[key]
		if err == nil && g.ts < ts {
			if err = c.emit(Result{Sink: g.sink, Sources: g.sources}); err == nil {
				delete(c.groups, key)
				continue
			}
		}
		kept = append(kept, key)
	}
	c.order = kept
	return err
}

// failingStore refuses its failAt-th ingest (counting from 1) and records
// the rest.
type failingStore struct {
	failAt, calls int
	log           *[]string
}

var errIngest = errors.New("ingest refused")

func (s *failingStore) Ingest(sink core.Tuple, sources []core.Tuple) (uint64, error) {
	s.calls++
	if s.calls == s.failAt {
		return 0, errIngest
	}
	line := fmt.Sprintf("%d <-", core.MetaOf(sink).ID())
	for _, src := range sources {
		line += fmt.Sprintf(" %d", core.MetaOf(src).ID())
	}
	*s.log = append(*s.log, line)
	return uint64(s.calls), nil
}

func (s *failingStore) Advance(int64) {}

// TestCollectorMatchesScanReference feeds both collectors one
// timestamp-sorted stream in which the records of several sink tuples
// interleave, under a non-zero horizon. They must emit the same results in
// the same order; when an emit fails they must fail on the same record, and
// the groups left pending — the failed one and everything after it — must
// then flush identically.
func TestCollectorMatchesScanReference(t *testing.T) {
	const horizon = 3
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var recs []*Record
		nextID := uint64(1)
		var open []*evTuple // sink tuples still receiving records
		for ts := int64(0); ts < 30; ts++ {
			for n := rng.Intn(3); n > 0; n-- {
				nextID++
				open = append(open, idTuple(ts, nextID))
			}
			// Records carry their sink tuple's timestamp, so only sinks of
			// the current timestamp may still interleave.
			live := open[:0]
			for _, s := range open {
				if s.Timestamp() == ts {
					live = append(live, s)
				}
			}
			open = live
			for n := rng.Intn(6); n > 0 && len(open) > 0; n-- {
				sink := open[rng.Intn(len(open))]
				nextID++
				src := idTuple(ts, nextID-uint64(rng.Intn(2))) // sometimes a duplicate origin
				recs = append(recs, &Record{Ts: ts, SinkID: sink.ID(), Sink: sink,
					OrigID: src.ID(), OrigTs: ts, OrigKind: core.KindSource, Orig: src})
			}
		}
		for _, failAt := range []int{0, 1 + rng.Intn(8)} {
			var got, want []string
			gotStore := &failingStore{failAt: failAt, log: &got}
			wantStore := &failingStore{failAt: failAt, log: &want}
			c := &Collector{Store: gotStore, Horizon: horizon}
			ref := &scanCollector{horizon: horizon, emit: func(r Result) error {
				_, err := wantStore.Ingest(r.Sink, r.Sources)
				return err
			}}
			for i, rec := range recs {
				gotErr, wantErr := c.Add(rec), ref.add(rec)
				if !errors.Is(gotErr, wantErr) {
					t.Fatalf("seed %d failAt %d record %d: Add error %v, reference %v", seed, failAt, i, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d failAt %d record %d: emitted %v, reference %v", seed, failAt, i, got, want)
				}
			}
			if failAt > 0 && gotStore.calls < failAt {
				t.Fatalf("seed %d: stream too short to reach ingest %d", seed, failAt)
			}
			// End of stream: the unflushed suffix, the failed group first.
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := ref.flushBefore(1 << 62); err != nil {
				t.Fatal(err)
			}
			pending := len(c.groups.byID) + len(c.groups.byRef)
			if !reflect.DeepEqual(got, want) || len(c.order) != 0 || pending != 0 {
				t.Fatalf("seed %d failAt %d: after Flush emitted %v, reference %v (%d groups pending)",
					seed, failAt, got, want, pending)
			}
		}
	}
}

// TestMUJoinPlansHashProbed: the planner must run the MU's Join as the
// hash-indexed columnar join on its declared spec by default, and on the
// spec derived from its row predicate only when vectorization is off.
func TestMUJoinPlansHashProbed(t *testing.T) {
	for _, vectorize := range []bool{true, false} {
		b := query.New("mu", query.WithVectorize(vectorize))
		source := func(name string) *query.Node {
			return b.AddSource(name, func(context.Context, func(core.Tuple) error) error { return nil })
		}
		mu := AddMU(b, "mu", source("derived"), []*query.Node{source("up")}, MUConfig{Window: 1})
		AddCollector(b, "prov", mu, nil)
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if vectorize {
			want = 1
		}
		if got := q.VectorizedStatefulSegments(); got != want {
			t.Fatalf("vectorize %v: %d columnar stateful segments, want %d\n%s", vectorize, got, want, q.Explain())
		}
	}
}
