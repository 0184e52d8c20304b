package comm

import (
	"fmt"
	"slices"
)

// Forward error correction for the uplink: Hamming(7,4) with block
// interleaving. Each 4 data bits expand to a 7-bit codeword that corrects
// any single bit error; a depth-D block interleaver transmits D codewords
// column-wise, so a contiguous burst of up to D bit errors lands at most
// one error in each codeword — exactly the failure mode of the
// Gilbert–Elliott bad state. The price is a fixed 7/4 on-air expansion,
// surfaced to the power model through LinkBudget.TxEnergyPerInfoBit.

const (
	fecDataBits = 4
	fecCodeBits = 7
)

// FEC is a Hamming(7,4) codec with a depth-Depth block interleaver
// (Depth = 1 disables interleaving). The codec keeps internal scratch
// buffers, so one instance must not be shared across goroutines.
type FEC struct {
	// Depth is the interleaver depth in codewords.
	Depth int

	corrected int64
	scratch   []uint64
}

// NewFEC returns a codec at the given interleaver depth.
func NewFEC(depth int) (*FEC, error) {
	if depth < 1 {
		return nil, fmt.Errorf("comm: FEC interleave depth %d < 1", depth)
	}
	return &FEC{Depth: depth}, nil
}

// Rate returns the code rate (data bits per coded bit): 4/7.
func (f *FEC) Rate() float64 { return float64(fecDataBits) / float64(fecCodeBits) }

// Overhead returns the on-air expansion factor: 7/4.
func (f *FEC) Overhead() float64 { return float64(fecCodeBits) / float64(fecDataBits) }

// CodedBits returns the on-air bit count for n data bits (which are
// zero-padded to a nibble boundary before coding).
func (f *FEC) CodedBits(dataBits int) int {
	return (dataBits + fecDataBits - 1) / fecDataBits * fecCodeBits
}

// Corrected returns the cumulative count of bit errors this codec has
// corrected while decoding.
func (f *FEC) Corrected() int64 { return f.corrected }

// RestoreCorrected overwrites the cumulative correction counter — used
// when a checkpointed codec is rebuilt. The codec is otherwise stateless
// between calls (scratch is transient).
func (f *FEC) RestoreCorrected(n int64) { f.corrected = n }

// hammingEncode maps 4 data bits to the codeword [p1 p2 d1 p3 d2 d3 d4].
func hammingEncode(d1, d2, d3, d4 byte) [fecCodeBits]byte {
	p1 := d1 ^ d2 ^ d4
	p2 := d1 ^ d3 ^ d4
	p3 := d2 ^ d3 ^ d4
	return [fecCodeBits]byte{p1, p2, d1, p3, d2, d3, d4}
}

// hammingDecode corrects a single-bit error in place and returns the four
// data bits plus whether a correction was applied.
func hammingDecode(w []byte) (d [fecDataBits]byte, corrected bool) {
	s1 := w[0] ^ w[2] ^ w[4] ^ w[6]
	s2 := w[1] ^ w[2] ^ w[5] ^ w[6]
	s3 := w[3] ^ w[4] ^ w[5] ^ w[6]
	if syndrome := int(s1) | int(s2)<<1 | int(s3)<<2; syndrome != 0 {
		w[syndrome-1] ^= 1
		corrected = true
	}
	return [fecDataBits]byte{w[2], w[4], w[5], w[6]}, corrected
}

// fecEnc maps a data nibble d1d2d3d4 (MSB first) to its codeword
// [p1 p2 d1 p3 d2 d3 d4] packed MSB-first into 7 bits; fecDec maps every
// 7-bit received word to its corrected nibble, with fecFixed set when
// hammingDecode applied a correction. Both come from the bit-level
// hammingEncode/hammingDecode, so the packed codec decides exactly as
// they do.
var fecEnc, fecDec = fecTables()

const fecFixed = 1 << fecDataBits

func fecTables() (enc [1 << fecDataBits]byte, dec [1 << fecCodeBits]byte) {
	pack := func(bits []byte) byte {
		var v byte
		for _, b := range bits {
			v = v<<1 | b
		}
		return v
	}
	for v := range enc {
		cw := hammingEncode(byte(v>>3)&1, byte(v>>2)&1, byte(v>>1)&1, byte(v)&1)
		enc[v] = pack(cw[:])
	}
	var w [fecCodeBits]byte
	for v := range dec {
		for i := range w {
			w[i] = byte(v>>(fecCodeBits-1-i)) & 1
		}
		d, corrected := hammingDecode(w[:])
		dec[v] = pack(d[:])
		if corrected {
			dec[v] |= fecFixed
		}
	}
	return enc, dec
}

// The packed codec works a tile at a time. An interleave block of rows
// codewords is cut into tiles of at most fecTile codewords; a tile of n
// codewords is one uint64 holding its 7n coded bits column-major —
// every codeword's bit 0, then every bit 1, … — so codeword j's bit c
// sits at bit 7n−1−c·n−j. A block of one tile (rows ≤ 8) is exactly
// its 7n-bit slice of the stream and moves in one accumulator write;
// in a wider block each tile column is a run of n bits in that column
// of the block, so the tiles interleave column by column.
const fecTile = 8

// fecSpread[n-1][v] is nibble v's codeword placed as codeword 0 of an
// n-wide tile: codeword bit c at bit 7n−1−c·n. Codeword j of a tile is
// its entry shifted right by j.
var fecSpread = fecSpreadTables()

func fecSpreadTables() (t [fecTile][1 << fecDataBits]uint64) {
	for n := 1; n <= fecTile; n++ {
		for v, cw := range fecEnc {
			for c := 0; c < fecCodeBits; c++ {
				t[n-1][v] |= uint64(cw>>(fecCodeBits-1-c)&1) << (fecCodeBits*n - 1 - c*n)
			}
		}
	}
	return t
}

// tiles returns the scratch tile words for an interleave block of rows
// codewords, and how many tile columns move per stream access: all 7
// when the block is one tile, else one.
func (f *FEC) tiles(rows int) ([]uint64, int) {
	n := (rows + fecTile - 1) / fecTile
	if cap(f.scratch) < n {
		f.scratch = make([]uint64, n)
	}
	if n == 1 {
		return f.scratch[:1], fecCodeBits
	}
	return f.scratch[:n], 1
}

// tileWidth is the codeword count of tile t in a block of rows codewords.
func tileWidth(rows, t int) int { return min(fecTile, rows-fecTile*t) }

// transpose8 transposes the 8×8 bit matrix whose row i is byte i of x
// counted from the most significant end, column j bit 7−j of that byte
// (Hacker's Delight, §7–3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// tileRows spreads an n-wide tile's seven n-bit columns one per byte,
// column 0 in the top byte, each top-aligned in its byte: the 8×8
// matrix whose transpose holds codeword j in byte j, above one zero bit.
// Counting columns from the low end, column g moves from bit n·g to bit
// 8·g in three mask-and-shift steps — by 4d, 2d and d bits for d = 8−n,
// each taking the columns whose index has that bit set — and the result
// then shifts up to the top. Shift counts are masked so they compile to
// bare shifts.
func tileRows(x uint64, n int) uint64 {
	m := &fecRowMasks[n-1]
	d := uint(fecTile - n)
	x = x&^m[0] | (x&m[0])<<(4*d&63)
	x = x&^m[1] | (x&m[1])<<(2*d&63)
	x = x&^m[2] | (x&m[2])<<(d&63)
	return x << (uint(2*fecTile-n) & 63)
}

// fecRowMasks[n-1] are tileRows' three step masks for an n-wide tile:
// the columns moved at each step, at the bits they occupy before it.
var fecRowMasks = fecRowMaskTables()

func fecRowMaskTables() (t [fecTile][3]uint64) {
	for n := 1; n <= fecTile; n++ {
		d := fecTile - n
		for step, k := range []int{2, 1, 0} {
			for g := 0; g < fecCodeBits; g++ {
				if g>>k&1 == 1 {
					at := n*g + d*(g>>(k+1)<<(k+1))
					t[n-1][step] |= (1<<n - 1) << at
				}
			}
		}
	}
	return t
}

// bitWriter writes MSB-first bit runs into a pre-sized buffer through a
// 64-bit accumulator that holds fewer than 8 pending bits between puts.
type bitWriter struct {
	buf []byte
	pos int
	acc uint64
	n   uint
}

// put writes the low k bits of v, k ≤ 56.
func (w *bitWriter) put(v uint64, k int) {
	w.acc = w.acc<<k | v&(1<<k-1)
	w.n += uint(k)
	for w.n >= 8 {
		w.n -= 8
		w.buf[w.pos] = byte(w.acc >> w.n)
		w.pos++
	}
}

// flush writes the pending bits, zero-filling the final byte.
func (w *bitWriter) flush() {
	if w.n > 0 {
		w.buf[w.pos] = byte(w.acc << (8 - w.n))
	}
}

// bitReader reads MSB-first bit runs through a 64-bit accumulator.
type bitReader struct {
	buf []byte
	pos int
	acc uint64
	n   uint
}

// get returns the next k bits, k ≤ 56.
func (r *bitReader) get(k int) uint64 {
	for r.n < uint(k) {
		r.acc = r.acc<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.n += 8
	}
	r.n -= uint(k)
	return r.acc >> r.n & (1<<k - 1)
}

// extend returns dst lengthened by n bytes, reallocating only when its
// capacity is short. The new bytes are not cleared: the bit writer
// assigns every one.
func extend(dst []byte, n int) []byte {
	return slices.Grow(dst, n)[:len(dst)+n]
}

// AppendEncode appends the coded, interleaved bit stream for data to
// dst: CodedBits(8·len(data)) bits packed MSB-first, the final partial
// byte zero-filled. Each byte codes as two nibbles, high first; a
// depth-D block of codewords goes out column-major (every codeword's
// first bit, then every second bit, …). Passing a recycled dst[:0]
// keeps the steady-state path allocation-free.
func (f *FEC) AppendEncode(dst, data []byte) []byte {
	words := 2 * len(data)
	base := len(dst)
	dst = extend(dst, (words*fecCodeBits+7)/8)
	w := bitWriter{buf: dst, pos: base}
	for w0 := 0; w0 < words; w0 += f.Depth {
		rows := min(f.Depth, words-w0)
		tiles, span := f.tiles(rows)
		for t := range tiles {
			n := tileWidth(rows, t)
			spread := &fecSpread[n-1]
			var x uint64
			for j, i := 0, w0+fecTile*t; j < n; j, i = j+1, i+1 {
				x |= spread[data[i>>1]>>(4-4*(i&1))&0x0F] >> j
			}
			tiles[t] = x
		}
		for c := 0; c < fecCodeBits; c += span {
			for t, x := range tiles {
				n := tileWidth(rows, t)
				w.put(x>>(n*(fecCodeBits-c-span)), span*n)
			}
		}
	}
	w.flush()
	return dst
}

// AppendDecode deinterleaves and decodes the first nbits bits of a coded
// stream produced by AppendEncode, appending the recovered data bits —
// 4 per 7 coded bits — packed MSB-first with the final partial byte
// zero-filled. It returns the extended slice and the number of bit
// errors corrected in this call. nbits must be a multiple of 7 and
// coded must hold at least ⌈nbits/8⌉ bytes.
func (f *FEC) AppendDecode(dst, coded []byte, nbits int) ([]byte, int, error) {
	if nbits < 0 || nbits%fecCodeBits != 0 {
		return dst, 0, fmt.Errorf("comm: coded length %d not a multiple of %d", nbits, fecCodeBits)
	}
	if need := (nbits + 7) / 8; len(coded) < need {
		return dst, 0, fmt.Errorf("comm: %d coded bits need %d bytes, have %d", nbits, need, len(coded))
	}
	words := nbits / fecCodeBits
	base := len(dst)
	dst = extend(dst, (words+1)/2)
	w := bitWriter{buf: dst, pos: base}
	r := bitReader{buf: coded}
	fixed := 0
	for w0 := 0; w0 < words; w0 += f.Depth {
		rows := min(f.Depth, words-w0)
		tiles, span := f.tiles(rows)
		clear(tiles)
		for c := 0; c < fecCodeBits; c += span {
			for t := range tiles {
				n := tileWidth(rows, t)
				tiles[t] |= r.get(span*n) << (n * (fecCodeBits - c - span))
			}
		}
		for t, x := range tiles {
			n := tileWidth(rows, t)
			m := transpose8(tileRows(x, n))
			var nibs uint64
			for j := 0; j < n; j++ {
				d := fecDec[byte(m>>(57-8*j))&0x7F]
				fixed += int(d >> fecDataBits)
				nibs = nibs<<fecDataBits | uint64(d&0x0F)
			}
			w.put(nibs, fecDataBits*n)
		}
	}
	w.flush()
	f.corrected += int64(fixed)
	return dst, fixed, nil
}
