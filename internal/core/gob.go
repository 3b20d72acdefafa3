package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// wireMetaVersion guards the hand-rolled Meta wire layout.
const wireMetaVersion = 1

// GobEncode serialises the wire-relevant part of Meta: event time, stimulus,
// ID, kind and the baseline annotation list. The U1/U2/N references are
// process-local memory pointers and are deliberately dropped — that is the
// inter-process reality the paper's §6 algorithm (REMOTE tuples + IDs +
// SU/MU unfolders) exists to handle.
func (m *Meta) GobEncode() ([]byte, error) {
	ann := m.Annotation()
	var buf bytes.Buffer
	buf.Grow(8*(4+len(ann)) + 2)
	var scratch [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		buf.Write(scratch[:])
	}
	buf.WriteByte(wireMetaVersion)
	buf.WriteByte(byte(m.kind))
	put(uint64(m.ts))
	put(uint64(m.stim))
	put(m.id)
	put(uint64(len(ann)))
	for _, a := range ann {
		put(a)
	}
	return buf.Bytes(), nil
}

// GobDecode reverses GobEncode. The pointer meta-attributes are left nil;
// the receiving operator's OnReceive hook re-types the tuple (SOURCE stays
// SOURCE, everything else becomes REMOTE).
func (m *Meta) GobDecode(data []byte) error {
	if len(data) < 2+4*8 {
		return fmt.Errorf("core: meta wire data too short (%d bytes)", len(data))
	}
	if data[0] != wireMetaVersion {
		return fmt.Errorf("core: unsupported meta wire version %d", data[0])
	}
	m.kind = Kind(data[1])
	rest := data[2:]
	get := func(i int) uint64 { return binary.LittleEndian.Uint64(rest[i*8:]) }
	m.ts = int64(get(0))
	m.stim = int64(get(1))
	m.id = get(2)
	n := get(3)
	if want := int(n)*8 + 4*8; len(rest) < want {
		return fmt.Errorf("core: meta wire data truncated: have %d bytes, want %d", len(rest), want)
	}
	m.u1, m.u2, m.next = nil, nil, nil
	if n > 0 {
		ann := make([]uint64, n)
		for i := range ann {
			ann[i] = get(4 + i)
		}
		m.SetAnnotation(ann)
	}
	return nil
}
