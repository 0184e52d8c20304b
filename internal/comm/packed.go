package comm

import "math"

// PackedModem is a byte-oriented fast path over the square-QAM modem:
// when the bits/symbol k divides 8, a frame's bytes map to symbols in
// whole k-bit groups with no padding, so modulation is a table lookup
// per group and demodulation packs hard decisions straight back into
// bytes — no intermediate one-byte-per-bit stream. The symbol values
// and the hard-decision math are the exact float64 expressions of the
// bit-level qamModem, so a packed round trip is bit-identical to
// AppendBytesAsBits → AppendModulate → AppendDemodulate →
// AppendBitsAsBytes (pinned by reference_test.go).
type PackedModem struct {
	qm      *qamModem
	group   int       // bits per symbol k
	perByte int       // symbols per byte, 8/k
	tbl     []Symbol  // k-bit group value → constellation point
	thr     []float64 // level decision thresholds; see demodThresholds
}

// NewPackedModem returns the packed fast path for the modulation, or
// (nil, false) when it does not apply (only square QAM with k ∈ {2, 4, 8}
// packs bytes without padding).
func NewPackedModem(m Modulation) (*PackedModem, bool) {
	q, ok := m.(QAM)
	if !ok || q.Bits < 2 || q.Bits%2 != 0 || 8%q.Bits != 0 {
		return nil, false
	}
	qm := newQAMModem(q.Bits)
	half := q.Bits / 2
	mask := 1<<half - 1
	pm := &PackedModem{
		qm:      qm,
		group:   q.Bits,
		perByte: 8 / q.Bits,
		tbl:     make([]Symbol, 1<<q.Bits),
	}
	for v := range pm.tbl {
		// An MSB-first k-bit group splits into I bits then Q bits —
		// exactly AppendModulate's chunk[:half] / chunk[half:] order.
		pm.tbl[v] = Symbol{
			I: qm.amps[qm.grayToIdx[v>>half]],
			Q: qm.amps[qm.grayToIdx[v&mask]],
		}
	}
	pm.thr = demodThresholds(qm)
	return pm, true
}

// demodThresholds returns, for each level n in 1..levels-1, the smallest
// float64 x with nearestLevel(x) >= n, so that for every finite x
//
//	nearestLevel(x) == #\{t in thr : x >= t\}
//
// This holds because nearestLevel is a monotone non-decreasing step
// function of its argument: it composes a correctly-rounded division by
// the positive scale, a correctly-rounded constant add, an exact
// halving, math.Round, and clamps — each monotone. The thresholds are
// found by bit-level binary search with nearestLevel itself as the
// oracle, so the equivalence is by construction, not by re-deriving the
// boundary arithmetic (packed_test.go probes every threshold ±1 ulp).
func demodThresholds(qm *qamModem) []float64 {
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
	thr := make([]float64, qm.levels-1)
	for n := 1; n < qm.levels; n++ {
		lo, hi := ord(math.Inf(-1)), ord(math.Inf(1))
		for lo < hi {
			mid := lo + (hi-lo)/2
			if qm.nearestLevel(unord(mid)) >= n {
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
func (pm *PackedModem) BitsPerSymbol() int { return pm.group }

// SymbolsPerByte returns 8/k.
func (pm *PackedModem) SymbolsPerByte() int { return pm.perByte }

// AppendModulateBytes appends the len(data)*8/k symbols encoding data's
// bits MSB-first.
func (pm *PackedModem) AppendModulateBytes(dst []Symbol, data []byte) []Symbol {
	k := pm.group
	mask := byte(len(pm.tbl) - 1)
	tbl := pm.tbl
	n := len(dst)
	total := n + len(data)*pm.perByte
	if cap(dst) < total {
		grown := make([]Symbol, total, total+total/2)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:total]
	if k == 4 {
		// The common 16-QAM shape: two nibble lookups per byte, written by
		// index so the loop carries no append bookkeeping.
		for _, b := range data {
			dst[n] = tbl[b>>4]
			dst[n+1] = tbl[b&0x0F]
			n += 2
		}
		return dst
	}
	for _, b := range data {
		for shift := 8 - k; shift >= 0; shift -= k {
			dst[n] = tbl[b>>shift&mask]
			n++
		}
	}
	return dst
}

// AppendDemodulateBytes appends the hard-decision bytes for syms;
// len(syms) must be a multiple of 8/k (always true for symbols produced
// by AppendModulateBytes).
func (pm *PackedModem) AppendDemodulateBytes(dst []byte, syms []Symbol) []byte {
	qm := pm.qm
	half := pm.group / 2
	// Hard decisions by threshold count instead of nearestLevel's
	// divide-and-round: bit-identical for every finite input (see
	// demodThresholds), and a handful of compares beats two float
	// divisions per symbol.
	// The count is branch-free: signbit(x−t) ⟺ x < t for non-NaN x
	// (gradual underflow makes x−t round to zero exactly when x == t,
	// and correct rounding preserves the sign otherwise), so each
	// threshold contributes one subtract-and-shift instead of a
	// branch that mispredicts whenever noise lands near a boundary.
	thr := pm.thr
	idxToGray := qm.idxToGray
	var acc uint
	n := 0
	if len(thr) == 3 {
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
			v := idxToGray[ii]<<half | idxToGray[qi]
			acc = acc<<pm.group | uint(v)
			if n++; n == pm.perByte {
				dst = append(dst, byte(acc))
				acc, n = 0, 0
			}
		}
		return dst
	}
	for _, s := range syms {
		ii, qi := len(thr), len(thr)
		for _, t := range thr {
			ii -= int(math.Float64bits(s.I-t) >> 63)
			qi -= int(math.Float64bits(s.Q-t) >> 63)
		}
		v := idxToGray[ii]<<half | idxToGray[qi]
		acc = acc<<pm.group | uint(v)
		if n++; n == pm.perByte {
			dst = append(dst, byte(acc))
			acc, n = 0, 0
		}
	}
	return dst
}
