package provstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Server is the store node: it accepts any number of ingest and query
// connections (see remote.go for the protocol), merges every instance's
// stream into one backend with per-connection ID namespacing, flushes the
// backend before acknowledging each frame — an acked batch survives the
// server process being killed — and answers Backward/Forward/Stats/List
// against the merged store. cmd/spe-node -store-listen wraps it.
type Server struct {
	// mu serialises all backend access (Backend implementations are not
	// goroutine-safe) and the ID counters.
	mu       sync.Mutex
	be       Backend
	refs     int64
	nextSrc  uint64
	nextSink uint64
	// instWM tracks each ingest connection's last shipped watermark, keyed
	// by a per-connection instance number. Entries outlive their connection:
	// a disconnected instance's data is still in the store, so its last
	// watermark still bounds how far the merged view can be trusted.
	instWM   map[int64]int64
	nextInst int64

	connMu sync.Mutex
	ln     net.Listener
	conns  map[io.Closer]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a store node over be (any Backend: NewMemoryBackend for
// ephemeral deployments, CreateFileLog/OpenFileLogAppend for durable ones).
// ID assignment resumes above everything the backend already holds, so a
// restarted node reopening its file log keeps extending the same ID space.
func NewServer(be Backend) *Server {
	s := &Server{be: be, conns: make(map[io.Closer]struct{}), instWM: make(map[int64]int64)}
	for _, id := range be.SourceIDs(-1) {
		if id > s.nextSrc {
			s.nextSrc = id
		}
		s.refs += int64(be.RefCount(id))
	}
	for _, id := range be.SinkIDs(-1) {
		if id > s.nextSink {
			s.nextSink = id
		}
	}
	return s
}

// Listen starts accepting connections on addr (":0" picks an ephemeral port)
// and serves each on its own goroutine until Close or Kill. It returns the
// bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("provstore: listen %s: %w", addr, err)
	}
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		ln.Close()
		return nil, errors.New("provstore: server is closed")
	}
	s.ln = ln
	s.connMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if !s.track(conn) {
				conn.Close()
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer s.untrack(conn)
				defer conn.Close()
				_ = s.ServeConn(conn)
			}()
		}
	}()
	return ln.Addr(), nil
}

func (s *Server) track(c io.Closer) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c io.Closer) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, c)
}

// shutdown stops accepting and severs every active connection, then waits
// for the handlers to drain.
func (s *Server) shutdown() {
	s.connMu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

// Close shuts the node down gracefully: connections are severed, handlers
// drained, and the backend flushed and closed. The backend's in-memory index
// keeps answering direct queries afterwards.
func (s *Server) Close() error {
	s.shutdown()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.be.Close()
}

// Kill simulates the store node dying: the listener and every connection are
// torn down without flushing or closing the backend, exactly as if the
// process had been killed. Every acked frame is already flushed (the ack is
// sent after the backend flush), anything since is lost. Chaos tests use it;
// operational shutdown wants Close.
func (s *Server) Kill() { s.shutdown() }

// Stats returns the merged store's accounting. LiveSources and
// PeakLiveSources are zero: live dedup handles exist only on the ingesting
// instances, so — like a reopened store file — every merged source entry
// counts as retired.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Server) statsLocked() Stats {
	n := int64(s.be.SourceCount())
	st := Stats{
		Sinks: int64(s.be.SinkCount()), Sources: n, SourceRefs: s.refs,
		RetiredSources: n, Bytes: s.be.Bytes(),
		Watermark: s.be.Watermark(), Horizon: s.be.Horizon(),
		Instances: int64(len(s.instWM)), MinWatermark: s.be.Watermark(),
	}
	// The slowest instance's watermark bounds how far the merged view can be
	// trusted; with no ingest connections yet the backend watermark (e.g. a
	// reopened file log's) is all there is.
	first := true
	for _, wm := range s.instWM {
		if first || wm < st.MinWatermark {
			st.MinWatermark = wm
			first = false
		}
	}
	return st
}

// ServeConn serves one client connection over any byte stream (exported so
// tests can drive the protocol over in-memory pipes). It returns when the
// peer disconnects cleanly (nil) or on the first protocol, link or backend
// error — after nacking it to the peer where the link still allows.
func (s *Server) ServeConn(rw io.ReadWriter) error {
	r := bufio.NewReader(rw)
	w := bufio.NewWriter(rw)
	magic := make([]byte, len(remoteMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("provstore: server: read handshake: %w", err)
	}
	if string(magic) != remoteMagic {
		err := errors.New("provstore: server: peer is not a GLPROVR1 client (bad magic)")
		s.nack(w, err)
		return err
	}
	role, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("provstore: server: read role: %w", err)
	}
	switch role {
	case roleIngest:
		// The client's retention horizon; informational (retention runs on
		// the ingesting instance).
		if _, err := readU64(r); err != nil {
			return fmt.Errorf("provstore: server: read horizon: %w", err)
		}
		// Register the instance before the handshake ack, so a Stats call
		// the client makes after connecting already counts it.
		inst := s.register()
		if err := s.ack(w); err != nil {
			s.mu.Lock()
			delete(s.instWM, inst)
			s.mu.Unlock()
			return err
		}
		return s.serveIngest(r, w, inst)
	case roleQuery:
		if err := s.ack(w); err != nil {
			return err
		}
		return s.serveQuery(r, w)
	default:
		err := fmt.Errorf("provstore: server: unknown role 0x%02x", role)
		s.nack(w, err)
		return err
	}
}

func (s *Server) ack(w *bufio.Writer) error {
	w.WriteByte(ackOK)
	return w.Flush()
}

// nack reports err to the peer ('E' + message); best-effort — the link may
// already be gone.
func (s *Server) nack(w *bufio.Writer, err error) {
	msg := err.Error()
	if len(msg) > maxStringLen {
		msg = msg[:maxStringLen]
	}
	w.WriteByte(ackErr)
	writeU32(w, uint32(len(msg)))
	w.WriteString(msg)
	w.Flush()
}

// register records a new ingest connection as an SPE instance. It starts at
// watermark 0 — nothing of its stream is delivered yet — and pins the merged
// view's MinWatermark there until its first watermark record.
func (s *Server) register() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextInst++
	s.instWM[s.nextInst] = 0
	return s.nextInst
}

// serveIngest merges one instance's record stream into the backend. srcMap
// and sinkMap are the connection's ID namespace: every source and sink ID
// the instance ships is remapped onto a fresh global sequential ID, and sink
// records' source references are remapped through the same table — a
// reference to a source this connection never shipped is a protocol error.
func (s *Server) serveIngest(r *bufio.Reader, w *bufio.Writer, inst int64) error {
	srcMap := make(map[uint64]uint64)
	sinkMap := make(map[uint64]uint64)
	for {
		kind, err := r.ReadByte()
		if err == io.EOF {
			return nil // clean end of ingestion
		}
		if err != nil {
			return fmt.Errorf("provstore: server: read frame: %w", err)
		}
		if kind != frameBatch {
			err := fmt.Errorf("provstore: server: unexpected ingest frame 0x%02x (want 'B')", kind)
			s.nack(w, err)
			return err
		}
		n, err := readU32(r)
		if err != nil {
			return fmt.Errorf("provstore: server: read batch count: %w", err)
		}
		if n == 0 || n > maxBatchRecords {
			err := fmt.Errorf("provstore: server: batch of %d records outside (0, %d]", n, maxBatchRecords)
			s.nack(w, err)
			return err
		}
		// Decode the whole frame before taking the lock: the backend mutex is
		// shared with every other ingest and query connection, so it must
		// never be held across a blocking network read (a stalled peer would
		// wedge the whole node). The cumulative byte bound keeps a frame of
		// maximum-size records from buffering gigabytes (overshoot is at most
		// one record, whose own fields are individually capped).
		recs := make([]record, 0, min(int(n), 4096))
		var frameBytes int64
		for i := uint32(0); i < n; i++ {
			rec, size, err := decodeRecord(r)
			if err != nil {
				err = fmt.Errorf("provstore: server: batch record %d/%d: %w", i+1, n, err)
				s.nack(w, err)
				return err
			}
			if frameBytes += size; frameBytes > maxBatchFrameBytes {
				err := fmt.Errorf("provstore: server: batch frame exceeds %d bytes at record %d/%d", maxBatchFrameBytes, i+1, n)
				s.nack(w, err)
				return err
			}
			recs = append(recs, rec)
		}
		var ingestErr error
		s.mu.Lock()
		for _, rec := range recs {
			if ingestErr = s.applyLocked(rec, inst, srcMap, sinkMap); ingestErr != nil {
				break
			}
		}
		if ingestErr == nil {
			ingestErr = s.flushLocked()
		}
		s.mu.Unlock()
		if ingestErr != nil {
			s.nack(w, ingestErr)
			return ingestErr
		}
		if err := s.ack(w); err != nil {
			return fmt.Errorf("provstore: server: ack: %w", err)
		}
	}
}

// applyLocked folds one remapped record into the backend. inst identifies
// the ingesting instance (per-instance watermark tracking).
func (s *Server) applyLocked(rec record, inst int64, srcMap, sinkMap map[uint64]uint64) error {
	switch rec.kind {
	case recSource:
		e := rec.source
		if _, dup := srcMap[e.ID]; dup {
			return nil // instance re-shipped a source it already shipped
		}
		s.nextSrc++
		srcMap[e.ID] = s.nextSrc
		e.ID = s.nextSrc
		return s.be.AppendSource(e)
	case recSink:
		e := rec.sink
		if _, dup := sinkMap[e.ID]; dup {
			return nil
		}
		remapped := make([]uint64, len(e.Sources))
		for i, id := range e.Sources {
			global, ok := srcMap[id]
			if !ok {
				return fmt.Errorf("sink entry %d references source %d this instance never shipped", e.ID, id)
			}
			remapped[i] = global
		}
		s.nextSink++
		sinkMap[e.ID] = s.nextSink
		e.ID, e.Sources = s.nextSink, remapped
		if err := s.be.AppendSink(e); err != nil {
			return err
		}
		s.refs += int64(len(remapped))
		return nil
	case recWatermark:
		if rec.watermark > s.instWM[inst] {
			s.instWM[inst] = rec.watermark
		}
		return s.be.AppendWatermark(rec.watermark)
	default:
		return fmt.Errorf("unknown record kind 0x%02x", rec.kind)
	}
}

// flushLocked pushes the frame to the OS before it is acknowledged, so an
// acked frame survives the server being killed.
func (s *Server) flushLocked() error {
	if f, ok := s.be.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// serveQuery answers Backward/Forward/Stats/List requests against the merged
// store. A request against a missing entry nacks that request and keeps the
// connection alive; a broken or desynchronised link ends it.
func (s *Server) serveQuery(r *bufio.Reader, w *bufio.Writer) error {
	for {
		req, err := r.ReadByte()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("provstore: server: read request: %w", err)
		}
		switch req {
		case reqStats:
			s.mu.Lock()
			st := s.statsLocked()
			s.mu.Unlock()
			w.WriteByte(ackOK)
			for _, v := range []int64{st.Sinks, st.Sources, st.SourceRefs, st.LiveSources,
				st.RetiredSources, st.PeakLiveSources, st.ReEncoded, st.Bytes, st.Watermark, st.Horizon,
				st.Instances, st.MinWatermark} {
				writeU64(w, uint64(v))
			}
			if err := w.Flush(); err != nil {
				return fmt.Errorf("provstore: server: stats reply: %w", err)
			}
		case reqBackward:
			id, err := readU64(r)
			if err != nil {
				return fmt.Errorf("provstore: server: read sink ID: %w", err)
			}
			if err := s.replyBackward(w, id); err != nil {
				return err
			}
		case reqForward:
			id, err := readU64(r)
			if err != nil {
				return fmt.Errorf("provstore: server: read source ID: %w", err)
			}
			if err := s.replyForward(w, id); err != nil {
				return err
			}
		case reqList:
			max, err := readU64(r)
			if err != nil {
				return fmt.Errorf("provstore: server: read list bound: %w", err)
			}
			if err := s.replyList(w, int(int64(max))); err != nil {
				return err
			}
		default:
			err := fmt.Errorf("provstore: server: unknown request 0x%02x", req)
			s.nack(w, err)
			return err
		}
	}
}

func writeCount(w *bufio.Writer, n int) { writeU32(w, uint32(n)) }

func (s *Server) replyBackward(w *bufio.Writer, id uint64) error {
	s.mu.Lock()
	sink, ok := s.be.Sink(id)
	if !ok {
		s.mu.Unlock()
		s.nack(w, fmt.Errorf("no sink entry %d", id))
		return nil
	}
	type ref struct {
		e    SourceEntry
		refs int
	}
	sources := make([]ref, 0, len(sink.Sources))
	for _, srcID := range sink.Sources {
		e, ok := s.be.Source(srcID)
		if !ok {
			s.mu.Unlock()
			s.nack(w, fmt.Errorf("sink entry %d references missing source %d", id, srcID))
			return nil
		}
		sources = append(sources, ref{e: e, refs: s.be.RefCount(srcID)})
	}
	s.mu.Unlock()
	w.WriteByte(ackOK)
	w.Write(encodeSinkRecord(sink))
	writeCount(w, len(sources))
	for _, sr := range sources {
		w.Write(encodeSourceRecord(sr.e))
		writeCount(w, sr.refs)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("provstore: server: backward reply: %w", err)
	}
	return nil
}

func (s *Server) replyForward(w *bufio.Writer, id uint64) error {
	s.mu.Lock()
	src, ok := s.be.Source(id)
	if !ok {
		s.mu.Unlock()
		s.nack(w, fmt.Errorf("no source entry %d", id))
		return nil
	}
	ids := s.be.SinksOf(id)
	sinks := make([]SinkEntry, 0, len(ids))
	for _, sinkID := range ids {
		e, ok := s.be.Sink(sinkID)
		if !ok {
			s.mu.Unlock()
			s.nack(w, fmt.Errorf("forward index references missing sink %d", sinkID))
			return nil
		}
		sinks = append(sinks, e)
	}
	s.mu.Unlock()
	w.WriteByte(ackOK)
	w.Write(encodeSourceRecord(src))
	writeCount(w, len(ids))
	writeCount(w, len(sinks))
	for _, e := range sinks {
		w.Write(encodeSinkRecord(e))
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("provstore: server: forward reply: %w", err)
	}
	return nil
}

func (s *Server) replyList(w *bufio.Writer, max int) error {
	s.mu.Lock()
	ids := s.be.SinkIDs(max)
	sinks := make([]SinkEntry, 0, len(ids))
	for _, id := range ids {
		if e, ok := s.be.Sink(id); ok {
			sinks = append(sinks, e)
		}
	}
	s.mu.Unlock()
	w.WriteByte(ackOK)
	writeCount(w, len(sinks))
	for _, e := range sinks {
		w.Write(encodeSinkRecord(e))
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("provstore: server: list reply: %w", err)
	}
	return nil
}

// readU32 reads one little-endian uint32.
func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeU32(w *bufio.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeU64(w *bufio.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}
