package detrand

import (
	"math"
	"math/rand"
)

// This file provides FastNormFloat64 and FastFloat64: drop-in samplers
// that produce bit-identical value streams to math/rand's NormFloat64
// and Float64 while skipping the rand.Rand wrapper's interface dispatch
// on every draw. The fleet's sensing and channel kernels call these in
// their inner loops; their stock-sampler references live on as test
// oracles, and the determinism walls prove the two agree.
//
// Bit identity is not assumed — it is checked. init() rebuilds the
// ziggurat tables with the same Marsaglia–Tsang recipe math/rand's
// generator used, then replays thousands of interleaved normal/uniform
// draws against the stock generator across several seeds. Any mismatch
// (a future Go release changing the algorithm, say) permanently routes
// the Fast methods through the stock path instead.

// zigRn is the start of the ziggurat's right tail.
const zigRn = 3.442619855899

var (
	zigKn [128]uint32
	zigWn [128]float32
	zigFn [128]float32

	// zigOK gates the fast path; false falls back to math/rand.
	zigOK bool
)

func init() {
	buildZigTables()
	zigOK = verifyZig()
}

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

// verifyZig replays interleaved normal and uniform draws against the
// stock generator. 4096 normals per seed makes the low-probability
// branches (tail ~2.7e-3, wedge rejections) statistically certain to be
// exercised.
func verifyZig() bool {
	for _, seed := range []int64{1, 7, 42, -12345} {
		ref := rand.New(rand.NewSource(seed))
		got := &source{src: rand.NewSource(seed).(rand.Source64)}
		for i := 0; i < 4096; i++ {
			if math.Float64bits(ref.NormFloat64()) != math.Float64bits(got.norm()) {
				return false
			}
			if ref.Float64() != got.float64() {
				return false
			}
		}
	}
	return true
}

func zigAbsInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// float64 is math/rand's Float64 over the counting source: Int63
// scaled by 2^-63, redrawn in the (astronomically rare) case the
// division rounds up to exactly 1.
func (s *source) float64() float64 {
again:
	f := float64(s.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// norm is math/rand's ziggurat NormFloat64 over the counting source.
func (s *source) norm() float64 {
	for {
		j := int32(uint32(s.Int63() >> 31)) // Uint32, possibly negative
		i := j & 0x7F
		x := float64(j) * float64(zigWn[i])
		if zigAbsInt32(j) < zigKn[i] {
			// This case should be hit better than 99% of the time.
			return x
		}
		if i == 0 {
			// This extra work is only required for the base strip.
			for {
				x = -math.Log(s.float64()) * (1.0 / zigRn)
				y := -math.Log(s.float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigRn + x
			}
			return -zigRn - x
		}
		if zigFn[i]+float32(s.float64())*(zigFn[i-1]-zigFn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

// FastNormFloat64 returns exactly the value NormFloat64 would have
// returned, bypassing the rand.Rand wrapper's per-draw interface calls.
// Draw counting (and therefore checkpoint/restore) is unaffected: each
// underlying source step counts once either way. If the init-time
// self-check against math/rand failed, this falls back to the stock
// method.
func (r *Rand) FastNormFloat64() float64 {
	if !zigOK {
		return r.NormFloat64()
	}
	return r.cnt.norm()
}

// FastFloat64 is Float64's equivalent fast path; see FastNormFloat64.
func (r *Rand) FastFloat64() float64 {
	if !zigOK {
		return r.Float64()
	}
	return r.cnt.float64()
}

// normSlow finishes a ziggurat draw whose fast strip rejected the
// candidate (j, x): the base-strip tail, the wedge test, and — on wedge
// rejection — the full retry loop. Split out so FillNorm's inner loop
// carries only the >99% accept path.
func (s *source) normSlow(j int32, x float64) float64 {
	i := j & 0x7F
	if i == 0 {
		for {
			x = -math.Log(s.float64()) * (1.0 / zigRn)
			y := -math.Log(s.float64())
			if y+y >= x*x {
				break
			}
		}
		if j > 0 {
			return zigRn + x
		}
		return -zigRn - x
	}
	if zigFn[i]+float32(s.float64())*(zigFn[i-1]-zigFn[i]) < float32(math.Exp(-.5*x*x)) {
		return x
	}
	return s.norm()
}

// FillNorm fills dst with exactly the values len(dst) successive
// NormFloat64 calls would produce — the bulk sampler the AWGN channel
// draws its per-frame noise vector from. The ziggurat accept
// path runs inlined with the draw counter accumulated in a register and
// flushed in batches, so the per-draw cost approaches the raw source
// step; rejections flush the counter and take the exact slow path.
// Falls back to per-call NormFloat64 if the init self-check failed.
func (r *Rand) FillNorm(dst []float64) {
	if !zigOK {
		for i := range dst {
			dst[i] = r.NormFloat64()
		}
		return
	}
	src := r.cnt.src
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
		r.cnt.draws += n
		n = 0
		dst[i] = r.cnt.normSlow(j, x)
	}
	r.cnt.draws += n
}
