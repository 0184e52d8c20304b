package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The communication-centric dataflow's only computation is digitizing and
// packetizing raw neural data (Section 3.1). Frame layout (big endian):
//
//	magic   uint16  0xB C 1 F
//	seq     uint32  frame sequence number
//	chans   uint16  number of channels in the frame
//	bits    uint8   sample bit width d (1..16)
//	flags   uint8   reserved
//	payload []byte  chans samples packed at d bits each, MSB first
//	crc     uint32  CRC-32 (IEEE) over everything above

// FrameMagic identifies a MINDFUL uplink frame.
const FrameMagic uint16 = 0xBC1F

// Frame flag bits.
const (
	// FlagConcealed marks a frame synthesized by the receiver's gap
	// concealment rather than received over the air; decoders should
	// discount its samples accordingly. It never appears on the wire.
	FlagConcealed byte = 0x01
)

const frameHeaderLen = 2 + 4 + 2 + 1 + 1

// Frame is one uplink packet of digitized neural samples.
type Frame struct {
	Seq        uint32
	SampleBits int
	Samples    []uint16
	Flags      byte
}

// Packetizer frames sample vectors for transmission, maintaining the frame
// sequence counter.
type Packetizer struct {
	// SampleBits is the digitized sample width d (Eq. 6); 1..16.
	SampleBits int
	seq        uint32
}

// NewPacketizer returns a packetizer for d-bit samples.
func NewPacketizer(sampleBits int) (*Packetizer, error) {
	if sampleBits < 1 || sampleBits > 16 {
		return nil, fmt.Errorf("comm: sample bits %d outside 1..16", sampleBits)
	}
	return &Packetizer{SampleBits: sampleBits}, nil
}

// Seq returns the next sequence number the packetizer will assign — its
// only mutable state, exposed for checkpointing.
func (p *Packetizer) Seq() uint32 { return p.seq }

// SetSeq positions the sequence counter, so a restored packetizer
// continues exactly where the snapshotted one stopped.
func (p *Packetizer) SetSeq(seq uint32) { p.seq = seq }

// Encode frames one sample vector (one sample per channel) and advances the
// sequence counter.
func (p *Packetizer) Encode(samples []uint16) ([]byte, error) {
	if len(samples) == 0 {
		return nil, errors.New("comm: empty sample vector")
	}
	return p.AppendEncode(make([]byte, 0, frameHeaderLen+(len(samples)*p.SampleBits+7)/8+4), samples)
}

// AppendEncode frames one sample vector, appending the encoded frame to
// dst, and advances the sequence counter. Passing a recycled buffer
// re-sliced to [:0] makes the steady-state encode path allocation-free.
func (p *Packetizer) AppendEncode(dst []byte, samples []uint16) ([]byte, error) {
	if len(samples) == 0 {
		return nil, errors.New("comm: empty sample vector")
	}
	if err := checkSamples(samples, p.SampleBits); err != nil {
		return nil, err
	}
	dst = appendFrame(dst, p.seq, p.SampleBits, 0, samples)
	p.seq++
	return dst, nil
}

// EncodeFrame canonically serializes a frame with an explicit sequence
// number and flags — the stateless counterpart of Packetizer.Encode.
// Unlike the packetizer it accepts an empty sample vector, so every frame
// Decode accepts re-encodes (the fuzzing round-trip invariant).
func EncodeFrame(fr Frame) ([]byte, error) {
	if fr.SampleBits < 1 || fr.SampleBits > 16 {
		return nil, fmt.Errorf("comm: sample bits %d outside 1..16", fr.SampleBits)
	}
	if err := checkSamples(fr.Samples, fr.SampleBits); err != nil {
		return nil, err
	}
	return appendFrame(nil, fr.Seq, fr.SampleBits, fr.Flags, fr.Samples), nil
}

// checkSamples verifies the channel count and per-sample range for a
// d-bit frame.
func checkSamples(samples []uint16, sampleBits int) error {
	if len(samples) > 0xFFFF {
		return fmt.Errorf("comm: %d channels exceeds frame limit", len(samples))
	}
	max := uint16(1)<<sampleBits - 1
	if sampleBits == 16 {
		max = 0xFFFF
	}
	for i, s := range samples {
		if s > max {
			return fmt.Errorf("comm: sample %d value %d exceeds %d bits", i, s, sampleBits)
		}
	}
	return nil
}

// appendFrame appends one wire-format frame to dst without intermediate
// buffers.
func appendFrame(dst []byte, seq uint32, sampleBits int, flags byte, samples []uint16) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, FrameMagic)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(samples)))
	dst = append(dst, byte(sampleBits), flags)
	dst = AppendPackSamples(dst, samples, sampleBits)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// FrameSizeBits returns the on-air size in bits of a frame carrying the
// given number of channels at d bits per sample, including header and CRC.
// This is the per-frame overhead the throughput analysis can account for.
func FrameSizeBits(channels, sampleBits int) int {
	payload := (channels*sampleBits + 7) / 8
	return (frameHeaderLen + payload + 4) * 8
}

// Decoding errors. Every rejection is a static sentinel, so a corrupt
// frame costs no allocation.
var (
	ErrShortFrame    = errors.New("comm: frame truncated")
	ErrBadMagic      = errors.New("comm: bad frame magic")
	ErrBadCRC        = errors.New("comm: frame CRC mismatch")
	ErrBadSampleBits = errors.New("comm: frame sample bits invalid")
	ErrBadPayloadLen = errors.New("comm: frame payload length mismatch")
	ErrBadPadding    = errors.New("comm: nonzero payload padding bits")
)

// Decode parses and verifies one frame produced by Encode. The returned
// samples are freshly allocated and owned by the caller.
func Decode(buf []byte) (Frame, error) {
	return AppendDecode(nil, buf)
}

// AppendDecode parses and verifies one frame, appending its samples to
// dst. The returned Frame's Samples are the appended tail of dst, so a
// caller that decodes into recycled scratch (dst re-sliced to [:0]) gets
// samples that alias the scratch and stay valid only until the next call
// reusing it — the allocation-free receive path. Rejections return a
// zero Frame and leave dst's contents untouched.
func AppendDecode(dst []uint16, buf []byte) (Frame, error) {
	if len(buf) < frameHeaderLen+4 {
		return Frame{}, ErrShortFrame
	}
	if binary.BigEndian.Uint16(buf[0:2]) != FrameMagic {
		return Frame{}, ErrBadMagic
	}
	body, trailer := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return Frame{}, ErrBadCRC
	}
	seq := binary.BigEndian.Uint32(buf[2:6])
	chans := int(binary.BigEndian.Uint16(buf[6:8]))
	bits := int(buf[8])
	flags := buf[9]
	if bits < 1 || bits > 16 {
		return Frame{}, ErrBadSampleBits
	}
	payload := body[frameHeaderLen:]
	if want := (chans*bits + 7) / 8; len(payload) != want {
		return Frame{}, ErrBadPayloadLen
	}
	// Enforce canonical encoding: the final byte's padding bits must be
	// zero, so every accepted frame re-encodes to the same bytes.
	if pad := len(payload)*8 - chans*bits; pad > 0 && payload[len(payload)-1]&(1<<pad-1) != 0 {
		return Frame{}, ErrBadPadding
	}
	start := len(dst)
	dst = appendUnpackSamples(dst, payload, chans, bits)
	return Frame{Seq: seq, SampleBits: bits, Samples: dst[start:], Flags: flags}, nil
}

// PackSamples packs values at the given bit width, MSB first, padding the
// final byte with zeros.
func PackSamples(samples []uint16, bits int) []byte {
	return AppendPackSamples(make([]byte, 0, (len(samples)*bits+7)/8), samples, bits)
}

// AppendPackSamples appends the packed representation of samples to dst:
// each sample's low bits bits, MSB first, through a 64-bit accumulator
// (bits ≤ 16, so it never holds more than 23 pending bits), with the
// final partial byte left-aligned over zero padding — the canonical
// encoding Decode enforces.
func AppendPackSamples(dst []byte, samples []uint16, bits int) []byte {
	mask := uint64(1)<<bits - 1
	var acc uint64
	nacc := 0
	for _, s := range samples {
		acc = acc<<bits | uint64(s)&mask
		nacc += bits
		for nacc >= 8 {
			nacc -= 8
			dst = append(dst, byte(acc>>nacc))
		}
	}
	if nacc > 0 {
		dst = append(dst, byte(acc<<(8-nacc)))
	}
	return dst
}

// UnpackSamples reverses PackSamples for a known sample count.
func UnpackSamples(data []byte, count, bits int) ([]uint16, error) {
	if need := (count*bits + 7) / 8; len(data) < need {
		return nil, fmt.Errorf("comm: %d bytes too short for %d×%d-bit samples", len(data), count, bits)
	}
	return appendUnpackSamples(make([]uint16, 0, count), data, count, bits), nil
}

// appendUnpackSamples appends count bits-wide samples unpacked from data,
// which must hold at least ceil(count*bits/8) bytes.
func appendUnpackSamples(dst []uint16, data []byte, count, bits int) []uint16 {
	var acc uint64
	nacc, di := 0, 0
	mask := uint64(1)<<bits - 1
	for i := 0; i < count; i++ {
		for nacc < bits {
			acc = acc<<8 | uint64(data[di])
			di++
			nacc += 8
		}
		nacc -= bits
		dst = append(dst, uint16(acc>>nacc&mask))
	}
	return dst
}
