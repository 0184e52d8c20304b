// Package wire is the inter-gateway checkpoint-transfer format: one
// live session frozen into a self-describing envelope that a source
// shard exports and a target shard imports during migration. The
// envelope wraps the versioned checkpoint blob (internal/serve/
// checkpoint) with the cluster-level identity the shards themselves do
// not know — the cluster session key — plus the tick the snapshot was
// taken at, so the importer can sanity-check the transfer before it
// rebuilds a pipeline.
//
// Format (all integers big-endian):
//
//	magic    [4]byte  "MFMG"
//	version  uint16   envelope version (currently 1)
//	key      uint16 length + bytes, the cluster session key
//	source   uint16 length + bytes, the exporting shard's local ID
//	tick     uint64   pipeline tick at snapshot
//	blob     uint32 length + bytes, the checkpoint blob
//
// The same versioning rules as the checkpoint codec apply: decoders
// reject versions they do not know, every length field is bounded, and
// truncated or trailing bytes are errors — malformed input must never
// panic or force an unbounded allocation (FuzzMigrationDecode pins
// this). The checkpoint blob itself is passed through opaquely; its own
// codec validates it on restore.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies a MINDFUL migration envelope.
var Magic = [4]byte{'M', 'F', 'M', 'G'}

// Version is the current envelope version.
const Version uint16 = 1

// Bounds on decoded length fields: keys and shard IDs are short
// human-readable strings; the blob bound matches the control plane's
// request-body cap so an envelope can always travel over it.
const (
	maxKeyLen  = 256
	maxBlobLen = 16 << 20
)

// Decoding errors.
var (
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrTruncated   = errors.New("wire: truncated")
	ErrTrailing    = errors.New("wire: trailing bytes")
	ErrLengthBound = errors.New("wire: length field exceeds bound")
)

// Envelope is one migrating session on the wire.
type Envelope struct {
	// Key is the cluster-wide session key the front tier routes by.
	Key string
	// SourceID is the exporting shard's local session ID — diagnostic
	// only; the importer assigns its own.
	SourceID string
	// Tick is the pipeline tick the checkpoint was taken at.
	Tick uint64
	// Blob is the opaque checkpoint blob (internal/serve/checkpoint).
	Blob []byte
}

// Encode serializes the envelope.
func Encode(e Envelope) ([]byte, error) {
	if len(e.Key) > maxKeyLen {
		return nil, fmt.Errorf("%w: key %d bytes", ErrLengthBound, len(e.Key))
	}
	if len(e.SourceID) > maxKeyLen {
		return nil, fmt.Errorf("%w: source ID %d bytes", ErrLengthBound, len(e.SourceID))
	}
	if len(e.Blob) > maxBlobLen {
		return nil, fmt.Errorf("%w: blob %d bytes", ErrLengthBound, len(e.Blob))
	}
	b := make([]byte, 0, 4+2+2+len(e.Key)+2+len(e.SourceID)+8+4+len(e.Blob))
	b = append(b, Magic[:]...)
	b = binary.BigEndian.AppendUint16(b, Version)
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.Key)))
	b = append(b, e.Key...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.SourceID)))
	b = append(b, e.SourceID...)
	b = binary.BigEndian.AppendUint64(b, e.Tick)
	b = binary.BigEndian.AppendUint32(b, uint32(len(e.Blob)))
	return append(b, e.Blob...), nil
}

// reader consumes fixed-width fields, remembering the first error so
// call sites stay linear.
type reader struct {
	b   []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// str reads a u16-length-prefixed string bounded by maxKeyLen.
func (r *reader) str() string {
	n := int(r.u16())
	if r.err == nil && n > maxKeyLen {
		r.err = ErrLengthBound
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Decode parses an envelope. Malformed input returns an error — never a
// panic, never an allocation beyond the input's own length.
func Decode(buf []byte) (Envelope, error) {
	var e Envelope
	r := &reader{b: buf}
	if m := r.take(4); r.err != nil || [4]byte(m) != Magic {
		if r.err == nil {
			r.err = ErrBadMagic
		}
		return Envelope{}, r.err
	}
	if v := r.u16(); r.err == nil && v != Version {
		r.err = fmt.Errorf("%w: %d (this build supports %d)", ErrBadVersion, v, Version)
	}
	e.Key = r.str()
	e.SourceID = r.str()
	e.Tick = r.u64()
	n := int(r.u32())
	if r.err == nil && n > maxBlobLen {
		r.err = ErrLengthBound
	}
	// The blob can never exceed the remaining bytes — reject before
	// allocating on a forged length.
	if r.err == nil && n > len(r.b) {
		r.err = ErrTruncated
	}
	if b := r.take(n); b != nil && n > 0 {
		e.Blob = append([]byte(nil), b...)
	}
	if r.err != nil {
		return Envelope{}, r.err
	}
	if len(r.b) != 0 {
		return Envelope{}, ErrTrailing
	}
	return e, nil
}
