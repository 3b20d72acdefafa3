package provenance

import (
	"fmt"
	"sync"

	"genealog/internal/core"
	"genealog/internal/transport"
)

// tagRecord is the Record's binary wire tag (100-109 reserved for the
// provenance package).
const tagRecord uint16 = 100

var _ transport.WireTuple = (*Record)(nil)

// MarshalWire implements transport.WireTuple. A Record has no meta header,
// so the frame carries its event time itself, then the scalars and the
// nested sink tuple. The originating tuple follows only when it is not
// REMOTE: the MU always replaces a REMOTE origin with the matching upstream
// record's (Def. 6.4), so only its ID needs to cross.
func (r *Record) MarshalWire(buf []byte) ([]byte, error) {
	buf = transport.AppendInt64(buf, r.Ts)
	buf = transport.AppendInt64(buf, int64(r.SinkID))
	buf = transport.AppendInt64(buf, int64(r.OrigID))
	buf = transport.AppendInt64(buf, r.OrigTs)
	buf = append(buf, byte(r.OrigKind))
	var err error
	if buf, err = transport.AppendTupleWire(buf, r.Sink); err != nil {
		return nil, fmt.Errorf("provenance: record sink: %w", err)
	}
	if r.OrigKind == core.KindRemote {
		return buf, nil
	}
	if buf, err = transport.AppendTupleWire(buf, r.Orig); err != nil {
		return nil, fmt.Errorf("provenance: record origin: %w", err)
	}
	return buf, nil
}

// UnmarshalWire implements transport.WireTuple. A REMOTE record decodes
// with a nil Orig.
func (r *Record) UnmarshalWire(data []byte) error {
	var err error
	if r.Ts, data, err = transport.ReadInt64(data); err != nil {
		return err
	}
	var v int64
	if v, data, err = transport.ReadInt64(data); err != nil {
		return err
	}
	r.SinkID = uint64(v)
	if v, data, err = transport.ReadInt64(data); err != nil {
		return err
	}
	r.OrigID = uint64(v)
	if r.OrigTs, data, err = transport.ReadInt64(data); err != nil {
		return err
	}
	if len(data) < 1 {
		return fmt.Errorf("provenance: record wire data truncated")
	}
	r.OrigKind = core.Kind(data[0])
	data = data[1:]
	if r.Sink, data, err = transport.ReadTupleWire(data); err != nil {
		return fmt.Errorf("provenance: record sink: %w", err)
	}
	if r.OrigKind == core.KindRemote {
		return nil
	}
	if r.Orig, _, err = transport.ReadTupleWire(data); err != nil {
		return fmt.Errorf("provenance: record origin: %w", err)
	}
	return nil
}

var registerWireOnce sync.Once

// RegisterWire registers the Record with both transport codecs. Safe to
// call multiple times; workload packages must additionally register their
// own tuple types (they are nested inside records).
func RegisterWire() {
	registerWireOnce.Do(func() {
		transport.Register(&Record{})
		transport.RegisterBinary(tagRecord, func() transport.WireTuple { return &Record{} })
	})
}
