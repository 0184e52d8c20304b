package neural

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mindful/internal/detrand"
	"mindful/internal/units"
)

// refFill is fill drawing from rng, a math/rand generator positioned
// where g's stream is — the reference the production fill, which draws
// from its detrand stream, is pinned against. g's own stream is not
// advanced.
func (g *Generator) refFill(dst []float64, rng *rand.Rand) {
	dt := g.cfg.SampleRate.Period()
	raw := g.lfpA1*g.lfpY1 + g.lfpA2*g.lfpY2 + rng.NormFloat64()
	g.lfpY2, g.lfpY1 = g.lfpY1, raw
	lfp := raw * g.lfpNorm

	tlen := len(g.template)
	for c := 0; c < g.cfg.Channels; c++ {
		v := g.cfg.LFPAmplitude*lfp + g.cfg.NoiseRMS*rng.NormFloat64()
		ring := g.pending[c*tlen : (c+1)*tlen]
		head := g.pendHead[c]
		if g.active[c] && (g.drift == nil || g.drift.alive[c]) {
			rate := g.cfg.MeanRateHz * (1 + g.cfg.ModulationDepth*(g.tuning[c][0]*g.intent[0]+g.tuning[c][1]*g.intent[1]))
			amp := 1.0
			if g.drift != nil {
				rate *= g.drift.rateScale[c]
				amp = g.drift.ampGain[c]
			}
			if rate < 0 {
				rate = 0
			}
			if rng.Float64() < rate*dt {
				for k, tv := range g.template {
					ring[(head+k)%tlen] += tv * amp
				}
				if g.logSpikes {
					g.spikeLog[c] = append(g.spikeLog[c], g.t)
				}
			}
		}
		v += ring[head]
		ring[head] = 0
		g.pendHead[c] = (head + 1) % tlen
		dst[c] = v
	}
	g.t++
}

// countingSource is math/rand's stock source with a step counter.
type countingSource struct {
	rand.Source64
	steps uint64
}

func (s *countingSource) Int63() int64   { s.steps++; return s.Source64.Int63() }
func (s *countingSource) Uint64() uint64 { s.steps++; return s.Source64.Uint64() }

// stockAt returns a math/rand generator at st's position and its
// counting source, whose steps start at st.Draws.
func stockAt(st detrand.State) (*rand.Rand, *countingSource) {
	cs := &countingSource{Source64: rand.NewSource(st.Seed).(rand.Source64)}
	for i := uint64(0); i < st.Draws; i++ {
		cs.Source64.Uint64()
	}
	cs.steps = st.Draws
	return rand.New(cs), cs
}

// refAppendQuantize quantizes one sample at a time through Quantize.
func (a ADC) refAppendQuantize(dst []uint16, xs []float64) []uint16 {
	for _, x := range xs {
		dst = append(dst, a.Quantize(x))
	}
	return dst
}

// TestNextIntoFastIdentical steps generators through the production
// NextInto and identically seeded twins through the reference fill on a
// math/rand generator, asserting bit-identical samples, spike logs and
// end states (draw counts included) across many ticks, changing intents
// and a mid-run unit drift (rotated, rescaled and dead units).
func TestNextIntoFastIdentical(t *testing.T) {
	const (
		n     = 5
		ticks = 400
	)
	cfg := DefaultConfig()
	cfg.Channels = 16
	mk := func() []*Generator {
		gens := make([]*Generator, n)
		for i := range gens {
			c := cfg
			c.Seed = int64(1000 + 37*i)
			g, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			g.RecordSpikes(true)
			gens[i] = g
		}
		return gens
	}
	fast, ref := mk(), mk()
	stock := make([]*rand.Rand, n)
	steps := make([]*countingSource, n)
	for i, g := range ref {
		stock[i], steps[i] = stockAt(g.rng.State())
	}
	got := make([]float64, cfg.Channels)
	want := make([]float64, cfg.Channels)
	for tick := 0; tick < ticks; tick++ {
		ix, iy := math.Sin(float64(tick)/30), math.Cos(float64(tick)/50)
		for i := 0; i < n; i++ {
			if tick == ticks/2 {
				for _, g := range []*Generator{fast[i], ref[i]} {
					if err := g.SetUnitState(i, 0.3*float64(i), 1.5, 0.7, true); err != nil {
						t.Fatal(err)
					}
					if err := g.SetUnitState(i+n, 0, 1, 1, false); err != nil {
						t.Fatal(err)
					}
				}
			}
			fast[i].SetIntent(ix, iy)
			ref[i].SetIntent(ix, iy)
			got = fast[i].NextInto(got)
			ref[i].refFill(want, stock[i])
			for c := range want {
				if math.Float64bits(want[c]) != math.Float64bits(got[c]) {
					t.Fatalf("tick %d gen %d ch %d: fast %v != reference %v", tick, i, c, got[c], want[c])
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		ref[i].rng = detrand.Restore(detrand.State{Seed: ref[i].rng.State().Seed, Draws: steps[i].steps})
		if !reflect.DeepEqual(fast[i].Snapshot(), ref[i].Snapshot()) {
			t.Fatalf("gen %d: end states diverged", i)
		}
		if !reflect.DeepEqual(fast[i].SpikeLog(), ref[i].SpikeLog()) {
			t.Fatalf("gen %d: spike logs diverged", i)
		}
	}
}

// TestAppendQuantizeFastIdentical pins the hoisted quantizer against the
// per-sample reference across widths, in-range, clipped and edge values.
func TestAppendQuantizeFastIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, bits := range []int{1, 4, 10, 16} {
		a := ADC{Bits: bits, FullScale: 2.0}
		xs := []float64{-3, -2, -1.9999, 0, 1.9999, 2, 3, math.SmallestNonzeroFloat64}
		for i := 0; i < 256; i++ {
			xs = append(xs, rng.NormFloat64())
		}
		want := a.refAppendQuantize(nil, xs)
		got := a.AppendQuantize(nil, xs)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("bits=%d: codes differ", bits)
		}
	}
}

func BenchmarkNextInto(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Channels = 32
	cfg.SampleRate = units.Hertz(2000)
	g, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float64, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = g.NextInto(buf)
	}
}
