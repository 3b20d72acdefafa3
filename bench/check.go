package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"genealog/internal/core"
	"genealog/internal/provenance"
	"genealog/internal/provstore"
	"genealog/internal/transport"
)

// defaultSeed is the seed bench/expected/*.json was recorded with.
const defaultSeed = 1

//go:embed expected/*.json
var expectedFS embed.FS

// expectation is the recorded outcome of a workload's check pass at the
// default seed.
type expectation struct {
	Seed    int64  `json:"seed"`
	Length  int    `json:"length"`
	Sinks   int64  `json:"sinks"`
	Sources int64  `json:"sources"`
	Digest  string `json:"digest"`
}

func loadExpectation(workload string) (expectation, error) {
	var e expectation
	data, err := expectedFS.ReadFile("expected/" + workload + ".json")
	if err != nil {
		return e, err
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return e, fmt.Errorf("expected/%s.json: %w", workload, err)
	}
	return e, nil
}

// digest accumulates an order-independent fingerprint of (sink tuple,
// contribution set) pairs. A tuple is identified by its event time and its
// payload bytes — meta-IDs and stimuli differ between deployments and runs,
// the payload does not — and a result by its sink plus its sorted sources,
// so the fingerprint is the same for any delivery order and any plan.
type digest struct {
	sum     [4]uint64
	results int64
	sources int64
	err     error
}

func tupleBytes(t core.Tuple) ([]byte, error) {
	w, ok := t.(transport.WireTuple)
	if !ok {
		return nil, fmt.Errorf("digest: %T has no wire form", t)
	}
	buf := binary.BigEndian.AppendUint64(nil, uint64(t.Timestamp()))
	return w.MarshalWire(buf)
}

func (d *digest) add(r provenance.Result) {
	if d.err != nil {
		return
	}
	sink, err := tupleBytes(r.Sink)
	if err != nil {
		d.err = err
		return
	}
	srcs := make([]string, len(r.Sources))
	for i, s := range r.Sources {
		b, err := tupleBytes(s)
		if err != nil {
			d.err = err
			return
		}
		srcs[i] = string(b)
	}
	sort.Strings(srcs)
	h := sha256.New()
	h.Write(sink)
	for _, s := range srcs {
		h.Write([]byte{0})
		h.Write([]byte(s))
	}
	sum := h.Sum(nil)
	for i := range d.sum {
		d.sum[i] += binary.BigEndian.Uint64(sum[8*i:])
	}
	d.results++
	d.sources += int64(len(r.Sources))
}

func (d *digest) hex() string {
	var b []byte
	for _, v := range d.sum {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return hex.EncodeToString(b)
}

const (
	lookupGroup  = 10
	lookupRounds = 21
)

// storeQueries is what reading back a pass's provenance log measured.
type storeQueries struct {
	openS []float64
	// One sample per round of lookups: the round's median lookup, of both
	// kinds (µs), Backward only and Forward only (ns).
	lookupsUs []float64
	backward  []float64
	forward   []float64
	sinks     int64
	bytes     int64
	dedup     float64
}

// queryStore opens the file log at path several times (the median open time
// is the metric) and answers n Backward and n Forward lookups on entries
// drawn with rng.
func queryStore(path string, opens, n int, rng *rand.Rand) (storeQueries, error) {
	var sq storeQueries
	var st *provstore.Store
	for i := 0; i < opens; i++ {
		// Every open and the lookups start from a collected heap: whether a
		// collection happens to be running decides more of a microsecond
		// lookup's time than the store does.
		st = nil
		runtime.GC()
		begin := time.Now()
		s, err := provstore.OpenRead(path)
		if err != nil {
			return sq, err
		}
		sq.openS = append(sq.openS, time.Since(begin).Seconds())
		st = s
	}
	stats := st.Stats()
	sq.sinks, sq.bytes, sq.dedup = stats.Sinks, stats.Bytes, stats.DedupRatio()
	sinkIDs, srcIDs := st.SinkIDs(), st.SourceIDs()
	if len(sinkIDs) == 0 || len(srcIDs) == 0 {
		return sq, fmt.Errorf("provenance log %s is empty", path)
	}
	// One lookup takes about a microsecond, so lookups are timed in groups:
	// lookupGroup Backward then lookupGroup Forward lookups, each group
	// contributing the mean of its kind and the mean of both, and a round of
	// n + n lookups the median over its groups. A round's median still moves
	// by a third with the state of the caches and the collector, so there
	// are lookupRounds rounds, each on a collected heap; the metric is the
	// median round.
	for round := 0; round < lookupRounds; round++ {
		runtime.GC()
		var backward, forward, both []float64
		for i := 0; i < n; i += lookupGroup {
			begin := time.Now()
			for j := 0; j < lookupGroup; j++ {
				id := sinkIDs[rng.Intn(len(sinkIDs))]
				_, sources, err := st.Backward(id)
				if err != nil {
					return sq, err
				}
				if len(sources) == 0 {
					return sq, fmt.Errorf("sink entry %d has no sources", id)
				}
			}
			middle := time.Now()
			for j := 0; j < lookupGroup; j++ {
				id := srcIDs[rng.Intn(len(srcIDs))]
				_, sinks, err := st.Forward(id)
				if err != nil {
					return sq, err
				}
				if len(sinks) == 0 {
					return sq, fmt.Errorf("source entry %d serves no sink", id)
				}
			}
			end := time.Now()
			backward = append(backward, float64(middle.Sub(begin).Nanoseconds())/lookupGroup)
			forward = append(forward, float64(end.Sub(middle).Nanoseconds())/lookupGroup)
			both = append(both, float64(end.Sub(begin).Nanoseconds())/(2*lookupGroup)/1e3)
		}
		sq.backward = append(sq.backward, quantile(backward, 0.5))
		sq.forward = append(sq.forward, quantile(forward, 0.5))
		sq.lookupsUs = append(sq.lookupsUs, quantile(both, 0.5))
	}
	return sq, nil
}
