package comm

import (
	"math"
	"slices"
	"sync"
)

// MaxQAMBits bounds QAM's bits per symbol k wherever a modem is built:
//
//   - PackedModem keeps a 2^k-entry symbol table — 1 MiB at k = 16, and
//     past it 1<<k outgrows memory (k = 64 asks for 2^32 levels per
//     axis) or wraps to zero (k ≥ 2× the word size);
//   - one symbol never needs to carry more than a 16-bit ADC sample word
//     (neural.ADC and the Packetizer cap sample width at 16 bits);
//   - Fig. 7's modulation staircase tops out at 256-QAM (k = 8) at the
//     largest electrode count the paper evaluates (n = 8192), so 16
//     leaves the design-space sweeps twice the headroom they use.
const MaxQAMBits = 16

// PackedModem is the byte-oriented modem the fleet transport runs for
// every modulation NewModem supports: it reads a packed MSB-first bit
// stream in k-bit groups, maps each group to its symbol by table lookup,
// and packs hard decisions straight back into bytes — no intermediate
// one-byte-per-bit stream. The symbol table is built by modulating
// every k-bit group through the bit-level Modem, and the decisions are
// threshold counts found with the bit-level demodulator as the oracle
// (see demodThresholds), so a packed round trip is bit-identical to the
// bit-level Modem's (pinned by reference_test.go).
//
// A PackedModem is immutable and safe for concurrent use; NewPackedModem
// returns one shared instance per modulation.
type PackedModem struct {
	k     int       // bits per symbol
	qBits int       // bits decided on Q: k/2 for QAM, 0 for OOK and BPSK
	tbl   []Symbol  // k-bit group value → symbol
	thr   []float64 // per-axis level decision thresholds, ascending
	gray  []int     // per-axis level index → bit pattern
}

// packedModems caches the one PackedModem per modulation: slot 0 is
// OOK, slot k is QAM with k bits per symbol (k = 1 is BPSK).
var packedModems [MaxQAMBits + 1]struct {
	once sync.Once
	pm   *PackedModem
}

// NewPackedModem returns the packed modem for m, or NewModem's error
// when m has no modem (non-square QAM, or k outside 1..MaxQAMBits).
func NewPackedModem(m Modulation) (*PackedModem, error) {
	bm, err := NewModem(m)
	if err != nil {
		return nil, err
	}
	slot := 0
	if q, ok := m.(QAM); ok {
		slot = q.Bits
	}
	c := &packedModems[slot]
	c.once.Do(func() { c.pm = buildPackedModem(bm) })
	return c.pm, nil
}

func buildPackedModem(bm Modem) *PackedModem {
	k := bm.BitsPerSymbol()
	pm := &PackedModem{k: k, tbl: make([]Symbol, 1<<k)}
	var bits []byte
	var sym []Symbol
	for v := range pm.tbl {
		bits = appendIntBits(bits[:0], v, k)
		sym, _ = bm.AppendModulate(sym[:0], bits)
		pm.tbl[v] = sym[0]
	}
	if qm, ok := bm.(*qamModem); ok {
		pm.qBits = k / 2
		pm.gray = qm.idxToGray
		pm.thr = demodThresholds(qm.levels, qm.nearestLevel)
		return pm
	}
	// OOK and BPSK decide one bit on I alone.
	pm.gray = []int{0, 1}
	pm.thr = demodThresholds(2, func(x float64) int {
		return int(bm.Demodulate([]Symbol{{I: x}})[0])
	})
	return pm
}

// demodThresholds returns, for each level n in 1..levels-1, the smallest
// float64 x with decide(x) >= n, so that for every finite x
//
//	decide(x) == #\{t in thr : x >= t\}
//
// This holds because every axis decision is a monotone non-decreasing
// step function of its argument: OOK's x > √2/2 and BPSK's x > 0
// trivially, and QAM's nearestLevel because it composes a
// correctly-rounded division by the positive scale, a correctly-rounded
// constant add, an exact halving, math.Round, and clamps — each
// monotone. The thresholds are found by bit-level binary search with the
// decision itself as the oracle, so the equivalence is by construction,
// not by re-deriving the boundary arithmetic (packed_test.go probes
// every threshold ±1 ulp).
func demodThresholds(levels int, decide func(float64) int) []float64 {
	// Order-preserving bijection between finite float64s and uint64s.
	ord := func(f float64) uint64 {
		u := math.Float64bits(f)
		if u>>63 != 0 {
			return ^u
		}
		return u | 1<<63
	}
	unord := func(o uint64) float64 {
		if o>>63 != 0 {
			return math.Float64frombits(o &^ (1 << 63))
		}
		return math.Float64frombits(^o)
	}
	thr := make([]float64, levels-1)
	for n := 1; n < levels; n++ {
		lo, hi := ord(math.Inf(-1)), ord(math.Inf(1))
		for lo < hi {
			mid := lo + (hi-lo)/2
			if decide(unord(mid)) >= n {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		thr[n-1] = unord(lo)
	}
	return thr
}

// BitsPerSymbol returns k.
func (pm *PackedModem) BitsPerSymbol() int { return pm.k }

// AppendModulate appends the ⌈nbits/k⌉ symbols for the first nbits bits
// of data, read MSB-first; the last group is zero-padded to k bits.
// data must hold at least ⌈nbits/8⌉ bytes.
func (pm *PackedModem) AppendModulate(dst []Symbol, data []byte, nbits int) []Symbol {
	k, tbl := pm.k, pm.tbl
	n := len(dst)
	nsym := (nbits + k - 1) / k
	dst = slices.Grow(dst, nsym)[:n+nsym]
	if k == 4 {
		// The common 16-QAM shape: two nibble lookups per whole byte,
		// written by index so the loop carries no append bookkeeping.
		full := nbits / 8
		for _, b := range data[:full] {
			dst[n] = tbl[b>>4]
			dst[n+1] = tbl[b&0x0F]
			n += 2
		}
		data, nbits = data[full:], nbits-8*full
	}
	// The rest — every group for other k — through a bit accumulator fed
	// a byte at a time.
	var acc uint64
	nacc := 0
	mask := uint64(len(tbl) - 1)
	for ; nbits > 0; nbits -= k {
		for nacc < k {
			var b byte
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			acc = acc<<8 | uint64(b)
			nacc += 8
		}
		nacc -= k
		v := acc >> nacc & mask
		if nbits < k {
			v &^= 1<<(k-nbits) - 1 // pad bits past nbits are zero
		}
		dst[n] = tbl[v]
		n++
	}
	return dst
}

// AppendDemodulate appends the hard decisions for syms, k bits per
// symbol packed MSB-first, with the final partial byte zero-filled.
func (pm *PackedModem) AppendDemodulate(dst []byte, syms []Symbol) []byte {
	// Hard decisions by threshold count instead of the bit-level
	// modem's divide-and-round: bit-identical for every finite input
	// (see demodThresholds), and a handful of compares beats two float
	// divisions per symbol.
	// The count is branch-free: signbit(x−t) ⟺ x < t for non-NaN x
	// (gradual underflow makes x−t round to zero exactly when x == t,
	// and correct rounding preserves the sign otherwise), so each
	// threshold contributes one subtract-and-shift instead of a
	// branch that mispredicts whenever noise lands near a boundary.
	thr, gray := pm.thr, pm.gray
	var acc uint
	nacc := 0
	if pm.k == 4 {
		// 16-QAM, the common fleet modulation, fully unrolled.
		t0, t1, t2 := thr[0], thr[1], thr[2]
		for _, s := range syms {
			ii := 3 -
				int(math.Float64bits(s.I-t0)>>63) -
				int(math.Float64bits(s.I-t1)>>63) -
				int(math.Float64bits(s.I-t2)>>63)
			qi := 3 -
				int(math.Float64bits(s.Q-t0)>>63) -
				int(math.Float64bits(s.Q-t1)>>63) -
				int(math.Float64bits(s.Q-t2)>>63)
			acc = acc<<4 | uint(gray[ii]<<2|gray[qi])
			if nacc += 4; nacc == 8 {
				dst = append(dst, byte(acc))
				nacc = 0
			}
		}
	} else {
		k, qBits := pm.k, pm.qBits
		for _, s := range syms {
			ii, qi := len(thr), len(thr)
			for _, t := range thr {
				ii -= int(math.Float64bits(s.I-t) >> 63)
				qi -= int(math.Float64bits(s.Q-t) >> 63)
			}
			v := gray[ii]
			if qBits > 0 {
				v = v<<qBits | gray[qi]
			}
			acc = acc<<k | uint(v)
			for nacc += k; nacc >= 8; {
				nacc -= 8
				dst = append(dst, byte(acc>>nacc))
			}
		}
	}
	if nacc > 0 {
		dst = append(dst, byte(acc<<(8-nacc)))
	}
	return dst
}
