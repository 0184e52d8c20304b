package decode

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mindful/internal/detrand"
	"mindful/internal/fixed"
	"mindful/internal/nn"
)

// rotatedSystem generates a test stream whose observation model rotates
// away from the one the decoders were fitted on — the nonstationarity a
// recalibrating decoder must track and a frozen decoder cannot.
func rotatedSystem(t *testing.T, bins, channels int, angle, noise float64, seed int64) (states, obs [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := make([][]float64, channels)
	for c := range h {
		h[c] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	cosA, sinA := math.Cos(angle), math.Sin(angle)
	states = make([][]float64, bins)
	obs = make([][]float64, bins)
	for i := range states {
		phase := float64(i) * 0.05
		states[i] = []float64{math.Sin(phase), math.Cos(phase * 0.7)}
		// Rotate each unit's preferred direction by angle.
		row := make([]float64, channels)
		for c := range row {
			h0 := h[c][0]*cosA - h[c][1]*sinA
			h1 := h[c][0]*sinA + h[c][1]*cosA
			row[c] = h0*states[i][0] + h1*states[i][1] + rng.NormFloat64()*noise
		}
		obs[i] = row
	}
	return states, obs
}

func trajRMSE(t *testing.T, d Decoder, states, obs [][]float64) float64 {
	t.Helper()
	var s float64
	var n int
	for i := range obs {
		x, err := d.Step(obs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range x {
			dd := x[j] - states[i][j]
			s += dd * dd
			n++
		}
	}
	return math.Sqrt(s / float64(n))
}

// fitAll fits one of each linear decoder kind from a day-0 (unrotated)
// training segment drawn with the same unit directions as seed.
func fitAll(t *testing.T) map[string]func() Decoder {
	t.Helper()
	states, obs := rotatedSystem(t, 300, 12, 0, 0.1, 21)
	return map[string]func() Decoder{
		"Kalman": func() Decoder {
			k, err := FitKalman(states, obs)
			if err != nil {
				t.Fatal(err)
			}
			return k
		},
		"FixedGain": func() Decoder {
			k, err := FitKalman(states, obs)
			if err != nil {
				t.Fatal(err)
			}
			fg, err := k.SteadyStateGain(500, 1e-9)
			if err != nil {
				t.Fatal(err)
			}
			return fg
		},
		"Wiener": func() Decoder {
			w, err := FitWiener(states, obs, 3, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
	}
}

// TestRecalibratorTracksRotation: after the observation model rotates,
// an adapted decoder of every kind must beat its frozen twin — the core
// CLDA claim the drift sweep quantifies end to end.
func TestRecalibratorTracksRotation(t *testing.T) {
	// Day-1 stream: units rotated 50° from the fitted model.
	states, obs := rotatedSystem(t, 600, 12, 0.9, 0.1, 21)
	for name, build := range fitAll(t) {
		t.Run(name, func(t *testing.T) {
			frozen := build()
			frozenErr := trajRMSE(t, frozen, states[300:], obs[300:])

			adapted := build()
			r, err := NewRecalibrator(adapted, RecalConfig{Buffer: 64, Every: 16})
			if err != nil {
				t.Fatal(err)
			}
			// Closed-loop phase: step and feed supervision on bins 0–299.
			for i := 0; i < 300; i++ {
				if _, err := adapted.Step(obs[i]); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Feed(obs[i], states[i]); err != nil {
					t.Fatal(err)
				}
			}
			if r.Refits() == 0 {
				t.Fatal("no refits applied during the closed-loop phase")
			}
			adaptedErr := trajRMSE(t, adapted, states[300:], obs[300:])
			if adaptedErr >= frozenErr {
				t.Fatalf("adaptation did not help: adapted RMSE %.4f >= frozen %.4f", adaptedErr, frozenErr)
			}
		})
	}
}

// TestRecalibratorDeterministic: identical feed sequences must produce
// bit-identical adapted models — the property the fleet determinism wall
// depends on.
func TestRecalibratorDeterministic(t *testing.T) {
	states, obs := rotatedSystem(t, 200, 8, 0.6, 0.1, 5)
	run := func() ModelState {
		k, err := FitKalman(states[:50], obs[:50])
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRecalibrator(k, RecalConfig{Buffer: 32, Every: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i := range obs {
			if _, err := r.Feed(obs[i], states[i]); err != nil {
				t.Fatal(err)
			}
		}
		return r.ModelState()
	}
	a, b := run(), run()
	for i := range a.H {
		if a.H[i] != b.H[i] || a.Q[i%len(a.Q)] != b.Q[i%len(b.Q)] {
			t.Fatalf("adapted models diverge at %d", i)
		}
	}
}

// TestRecalibratorStateRoundTrip: RecalState+ModelState snapshots must
// resume bit-identically — restore at feed K, continue, and match the
// uninterrupted run's model and estimates.
func TestRecalibratorStateRoundTrip(t *testing.T) {
	states, obs := rotatedSystem(t, 240, 12, 0.6, 0.1, 11)
	for name, build := range fitAll(t) {
		if name == "FixedGain" && testing.Short() {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := RecalConfig{Buffer: 32, Every: 8}
			d1 := build()
			r1, err := NewRecalibrator(d1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const snapAt = 120
			var recalSt RecalState
			var modelSt ModelState
			for i := range obs {
				if i == snapAt {
					recalSt = r1.State()
					modelSt = r1.ModelState()
				}
				if _, err := r1.Feed(obs[i], states[i]); err != nil {
					t.Fatal(err)
				}
			}
			want := r1.ModelState()

			d2 := build()
			r2, err := NewRecalibrator(d2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r2.RestoreState(recalSt); err != nil {
				t.Fatal(err)
			}
			if err := r2.RestoreModel(modelSt); err != nil {
				t.Fatal(err)
			}
			for i := snapAt; i < len(obs); i++ {
				if _, err := r2.Feed(obs[i], states[i]); err != nil {
					t.Fatal(err)
				}
			}
			got := r2.ModelState()
			if r1.Refits() != r2.Refits() {
				t.Fatalf("refit counts diverge: %d vs %d", r1.Refits(), r2.Refits())
			}
			for _, pair := range [][2][]float64{{want.H, got.H}, {want.Q, got.Q}, {want.W, got.W}, {want.K, got.K}} {
				if len(pair[0]) != len(pair[1]) {
					t.Fatalf("model field lengths diverge: %d vs %d", len(pair[0]), len(pair[1]))
				}
				for i := range pair[0] {
					if pair[0][i] != pair[1][i] {
						t.Fatalf("restored model diverges at element %d: %v vs %v", i, pair[0][i], pair[1][i])
					}
				}
			}
		})
	}
}

// TestAdaptedResetEqualsFresh: Reset on an adapted decoder must clear
// only temporal state — a fresh decoder given the same adapted model via
// RestoreModel must reproduce its trajectory bit for bit.
func TestAdaptedResetEqualsFresh(t *testing.T) {
	states, obs := rotatedSystem(t, 300, 12, 0.6, 0.1, 13)
	for name, build := range fitAll(t) {
		t.Run(name, func(t *testing.T) {
			d1 := build()
			r1, err := NewRecalibrator(d1, RecalConfig{Buffer: 32, Every: 8})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if _, err := d1.Step(obs[i]); err != nil {
					t.Fatal(err)
				}
				if _, err := r1.Feed(obs[i], states[i]); err != nil {
					t.Fatal(err)
				}
			}
			d1.Reset()
			fresh1, err := Run(d1, obs[200:])
			if err != nil {
				t.Fatal(err)
			}

			d2 := build()
			r2, err := NewRecalibrator(d2, RecalConfig{Buffer: 32, Every: 8})
			if err != nil {
				t.Fatal(err)
			}
			if err := r2.RestoreModel(r1.ModelState()); err != nil {
				t.Fatal(err)
			}
			fresh2, err := Run(d2, obs[200:])
			if err != nil {
				t.Fatal(err)
			}
			for i := range fresh1 {
				for j := range fresh1[i] {
					if fresh1[i][j] != fresh2[i][j] {
						t.Fatalf("step %d dim %d: post-Reset %v != fresh-with-model %v",
							i, j, fresh1[i][j], fresh2[i][j])
					}
				}
			}
		})
	}
}

// TestRecalibratorRejects covers construction and feed-time validation.
func TestRecalibratorRejects(t *testing.T) {
	states, obs := rotatedSystem(t, 100, 8, 0, 0.1, 2)
	k, err := FitKalman(states, obs)
	if err != nil {
		t.Fatal(err)
	}

	rng := detrand.New(3)
	net, err := nn.NewNetwork(1, 8,
		nn.RandDense(rng, 8, 16, nn.ReLU),
		nn.RandDense(rng, 16, 2, nn.Identity))
	if err != nil {
		t.Fatal(err)
	}
	nnd, err := NewNNDecoder(net, fixed.Format{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecalibrator(nnd, RecalConfig{}); !errors.Is(err, ErrUnsupportedDecoder) {
		t.Fatalf("DNN decoder accepted for recalibration: %v", err)
	}

	for _, bad := range []RecalConfig{
		{Buffer: 2},
		{Every: 100, Buffer: 8},
		{Blend: 1.5},
		{Blend: math.NaN()},
		{Ridge: -1},
		{ProcessNoise: -0.1},
	} {
		if _, err := NewRecalibrator(k, bad); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}

	r, err := NewRecalibrator(k, RecalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Feed(obs[0][:3], states[0]); err == nil {
		t.Fatal("short observation accepted")
	}
	if _, err := r.Feed(obs[0], []float64{math.NaN(), 0}); err == nil {
		t.Fatal("NaN intent accepted")
	}

	st := r.State()
	st.Head = 999
	if err := r.RestoreState(st); err == nil {
		t.Fatal("out-of-range head accepted")
	}
	var m ModelState
	m.H = []float64{1}
	if err := r.RestoreModel(m); err == nil {
		t.Fatal("mis-sized model accepted")
	}
}
