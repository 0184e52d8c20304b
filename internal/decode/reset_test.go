package decode

import (
	"testing"

	"mindful/internal/detrand"
	"mindful/internal/fixed"
	"mindful/internal/nn"
)

// allDecoders builds one of every Decoder implementation from the same
// fitted linear system.
func allDecoders(t *testing.T) (map[string]Decoder, [][]float64) {
	t.Helper()
	states, obs := synthLinearSystem(t, 240, 8, 0.2, 9)
	k, err := FitKalman(states[:160], obs[:160])
	if err != nil {
		t.Fatal(err)
	}
	fg, err := k.SteadyStateGain(500, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	qfg, err := NewQuantizedFixedGain(fg, fixed.Q4_3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := FitWiener(states[:160], obs[:160], 3, 1e-3)
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
	return map[string]Decoder{
		"Kalman":             k,
		"FixedGain":          fg,
		"QuantizedFixedGain": qfg,
		"Wiener":             w,
		"NNDecoder":          nnd,
	}, obs
}

// TestResetEqualsFresh: for every decoder implementation, Reset after an
// arbitrary history must reproduce the just-constructed decoder's full
// trajectory bit for bit — not merely the first step. A Reset that
// forgets any temporal state (the Kalman covariance, a Wiener lag slot,
// a fill cursor) diverges somewhere in the trajectory even when step
// zero matches.
func TestResetEqualsFresh(t *testing.T) {
	decs, obs := allDecoders(t)
	for name, d := range decs {
		t.Run(name, func(t *testing.T) {
			fresh, err := Run(d, obs[160:220])
			if err != nil {
				t.Fatal(err)
			}
			// Pollute the temporal state with a different segment, then Reset.
			if _, err := Run(d, obs[:40]); err != nil {
				t.Fatal(err)
			}
			d.Reset()
			again, err := Run(d, obs[160:220])
			if err != nil {
				t.Fatal(err)
			}
			for i := range fresh {
				for j := range fresh[i] {
					if fresh[i][j] != again[i][j] {
						t.Fatalf("step %d dim %d: fresh %v != post-Reset %v",
							i, j, fresh[i][j], again[i][j])
					}
				}
			}
		})
	}
}

// TestDoubleResetIsIdempotent: Reset on an already-fresh decoder must be
// a no-op, including on a decoder that has never stepped (scratch not
// yet built).
func TestDoubleResetIsIdempotent(t *testing.T) {
	decs, obs := allDecoders(t)
	for name, d := range decs {
		t.Run(name, func(t *testing.T) {
			d.Reset() // never stepped
			first, err := d.Step(obs[160])
			if err != nil {
				t.Fatal(err)
			}
			got := append([]float64(nil), first...)
			d.Reset()
			d.Reset()
			again, err := d.Step(obs[160])
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != again[i] {
					t.Fatalf("dim %d: %v != %v after double Reset", i, got[i], again[i])
				}
			}
		})
	}
}
