package decode

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mindful/internal/detrand"
	"mindful/internal/fixed"
	"mindful/internal/nn"
)

// fuzzLinearSystem mirrors synthLinearSystem without a *testing.T so the
// fuzz setup can use it.
func fuzzLinearSystem(bins, channels int, noise float64, seed int64) (states, obs [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	h := make([][]float64, channels)
	for c := range h {
		h[c] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	states = make([][]float64, bins)
	obs = make([][]float64, bins)
	for t := range states {
		phase := float64(t) * 0.05
		states[t] = []float64{math.Sin(phase), math.Cos(phase * 0.7)}
		row := make([]float64, channels)
		for c := range row {
			row[c] = h[c][0]*states[t][0] + h[c][1]*states[t][1] + rng.NormFloat64()*noise
		}
		obs[t] = row
	}
	return states, obs
}

// packObservation serializes an observation vector as the fuzz corpus
// byte form (little-endian float64s).
func packObservation(z []float64) []byte {
	out := make([]byte, 0, 8*len(z))
	for _, v := range z {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzDecoderStep: arbitrary observation vectors — NaN, Inf, subnormal,
// mis-sized, empty — must never panic any decoder implementation, and
// every invalid vector (wrong length or non-finite entry) must return an
// error at the boundary rather than poisoning the filter state.
func FuzzDecoderStep(f *testing.F) {
	const channels = 8
	states, obs := fuzzLinearSystem(200, channels, 0.2, 11)
	k, err := FitKalman(states, obs)
	if err != nil {
		f.Fatal(err)
	}
	fg, err := k.SteadyStateGain(500, 1e-9)
	if err != nil {
		f.Fatal(err)
	}
	qfg, err := NewQuantizedFixedGain(fg, fixed.Q4_3)
	if err != nil {
		f.Fatal(err)
	}
	w, err := FitWiener(states, obs, 3, 1e-3)
	if err != nil {
		f.Fatal(err)
	}
	rng := detrand.New(3)
	net, err := nn.NewNetwork(1, channels,
		nn.RandDense(rng, channels, 16, nn.ReLU),
		nn.RandDense(rng, 16, 2, nn.Identity))
	if err != nil {
		f.Fatal(err)
	}
	nnd, err := NewNNDecoder(net, fixed.Format{})
	if err != nil {
		f.Fatal(err)
	}
	decs := map[string]Decoder{
		"Kalman": k, "FixedGain": fg, "QuantizedFixedGain": qfg,
		"Wiener": w, "NNDecoder": nnd,
	}

	f.Add(packObservation(obs[0]))
	f.Add(packObservation(make([]float64, channels))) // all zero
	f.Add(packObservation([]float64{math.NaN(), 1, 2, 3, 4, 5, 6, 7}))
	f.Add(packObservation([]float64{math.Inf(1), 0, 0, 0, 0, 0, 0, math.Inf(-1)}))
	f.Add(packObservation(obs[0][:3])) // short
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3}) // trailing partial float is dropped

	f.Fuzz(func(t *testing.T, data []byte) {
		z := make([]float64, len(data)/8)
		for i := range z {
			z[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		invalid := len(z) != channels
		for _, v := range z {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				invalid = true
			}
		}
		for name, d := range decs {
			d.Reset()
			_, err := d.Step(z) // must never panic
			if invalid && err == nil {
				t.Fatalf("%s accepted invalid observation (len %d)", name, len(z))
			}
		}
	})
}
