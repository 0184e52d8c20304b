package detrand

import "math"

// This file holds the stream's samplers: Float64 and NormFloat64 and
// their bulk forms FillFloat64 and FillNorm, each math/rand's algorithm
// over the counted generator step. The bulk forms are what the fleet's
// sensing, channel and burst-link kernels call in their inner loops; they
// keep the draw count in a register and add it once, so their per-value
// cost approaches the raw generator step. The tests replay every sampler
// against math/rand bit for bit, draw count included.

// zigRn is the start of the ziggurat's right tail.
const zigRn = 3.442619855899

var (
	zigKn [128]uint32
	zigWn [128]float32
	zigFn [128]float32
)

func init() { buildZigTables() }

// buildZigTables recomputes math/rand's cooked ziggurat tables
// (Marsaglia & Tsang, "The Ziggurat Method for Generating Random
// Variables") with the exact constants and float32 rounding the stock
// tables were generated from.
func buildZigTables() {
	const m1 = 1 << 31
	var (
		dn float64 = zigRn
		tn         = dn
		vn float64 = 9.91256303526217e-3
	)
	q := vn / math.Exp(-0.5*dn*dn)
	zigKn[0] = uint32((dn / q) * m1)
	zigKn[1] = 0
	zigWn[0] = float32(q / m1)
	zigWn[127] = float32(dn / m1)
	zigFn[0] = 1.0
	zigFn[127] = float32(math.Exp(-0.5 * dn * dn))
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2.0 * math.Log(vn/dn+math.Exp(-0.5*dn*dn)))
		zigKn[i+1] = uint32((dn / tn) * m1)
		tn = dn
		zigFn[i] = float32(math.Exp(-0.5 * dn * dn))
		zigWn[i] = float32(dn / m1)
	}
}

func zigAbsInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// unitFloat is math/rand's Float64 conversion: an Int63 scaled by
// 2^-63. Values within 2^9 of 2^63 round up to exactly 1, which Float64
// rejects and redraws.
func unitFloat(x int64) float64 { return float64(x) / (1 << 63) }

// int63 is one counted generator step.
func (r *Rand) int63() int64 {
	r.draws++
	return r.rng.Int63()
}

// Float64 returns math/rand's Float64: a uniform value in [0, 1), one
// step scaled by 2^-63 and redrawn in the (astronomically rare) case the
// division rounds up to exactly 1.
func (r *Rand) Float64() float64 {
	for {
		if f := unitFloat(r.int63()); f < 1 {
			return f
		}
	}
}

// NormFloat64 returns math/rand's NormFloat64: a standard normal value
// by the ziggurat method.
func (r *Rand) NormFloat64() float64 {
	return r.norm(int32(uint32(r.int63() >> 31)))
}

// norm finishes a ziggurat draw whose first step is already taken: j is
// that step's Uint32, possibly negative. The strip test accepts better
// than 99% of candidates; a rejected one goes to the base-strip tail or
// the wedge test and, on wedge rejection, the draw retries with a fresh
// step. FillNorm runs the strip test inline and calls norm only for the
// candidates it rejects.
func (r *Rand) norm(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(zigWn[i])
		if zigAbsInt32(j) < zigKn[i] {
			return x
		}
		if i == 0 {
			// This extra work is only required for the base strip.
			for {
				x = -math.Log(r.Float64()) * (1.0 / zigRn)
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigRn + x
			}
			return -zigRn - x
		}
		if zigFn[i]+float32(r.Float64())*(zigFn[i-1]-zigFn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(uint32(r.int63() >> 31))
	}
}

// FillNorm fills dst with exactly the values len(dst) successive
// NormFloat64 calls would produce — the bulk sampler the AWGN channel
// draws its per-frame noise vector from. The ziggurat's strip test runs
// inline with the draw counter accumulated in a register; a rejected
// candidate flushes the counter and finishes in norm.
func (r *Rand) FillNorm(dst []float64) {
	src := &r.rng
	var n uint64
	for i := range dst {
		j := int32(uint32(src.Int63() >> 31))
		n++
		k := j & 0x7F
		x := float64(j) * float64(zigWn[k])
		if zigAbsInt32(j) < zigKn[k] {
			dst[i] = x
			continue
		}
		r.draws += n
		n = 0
		dst[i] = r.norm(j)
	}
	r.draws += n
}

// FillFloat64 fills dst with exactly the values len(dst) successive
// Float64 calls would produce, the f == 1 redraw included — the bulk
// sampler the burst link draws its per-bit uniforms from. Like FillNorm
// it keeps the draw count in a register and adds it once.
func (r *Rand) FillFloat64(dst []float64) {
	src := &r.rng
	var n uint64
	for i := range dst {
	again:
		f := unitFloat(src.Int63())
		n++
		if f == 1 {
			goto again
		}
		dst[i] = f
	}
	r.draws += n
}
