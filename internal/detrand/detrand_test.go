package detrand

import (
	"math"
	"math/rand"
	"testing"
)

// sequenceSeeds covers the seeding edge cases of math/rand's generator
// (0 is remapped, seeds are reduced mod 2^31−1 with negatives folded
// up, and the int64 extremes sit on both sides of that reduction) plus
// three seeds the fleet actually derives: fleet.DeriveSeed(1, 0,
// StreamLink), (1, 3, StreamChannel) and (2, 7, StreamDrift).
var sequenceSeeds = []int64{
	1, -7, 123456789,
	0, 1<<31 - 1, -(1<<31 - 1), math.MinInt64, math.MaxInt64,
	-681043614410909012, 6520056262494297177, 7931787381329147257,
}

// TestSequenceMatchesMathRand: the counting wrapper must be value-exact
// against the stock generator for every method the simulators use. This
// is the invariant that keeps every recorded digest pin valid after the
// rand → detrand swap. Each seed runs well past three turns of the
// generator's 607-word feedback register, so every register slot is
// read back after being written.
func TestSequenceMatchesMathRand(t *testing.T) {
	for _, seed := range sequenceSeeds {
		ref := rand.New(rand.NewSource(seed))
		got := New(seed)
		for i := 0; i < 4*607; i++ {
			switch i % 5 {
			case 0:
				if a, b := ref.Float64(), got.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, b, a)
				}
			case 1:
				if a, b := ref.NormFloat64(), got.NormFloat64(); a != b {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, b, a)
				}
			case 2:
				if a, b := ref.Int63(), got.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %v != %v", seed, i, b, a)
				}
			case 3:
				if a, b := ref.Intn(97), got.Intn(97); a != b {
					t.Fatalf("seed %d draw %d: Intn %v != %v", seed, i, b, a)
				}
			case 4:
				if a, b := ref.Uint64(), got.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %v != %v", seed, i, b, a)
				}
			}
		}
		// The raw generator too, so a Restore fast-forward (which steps
		// it directly) lands where the stock source would.
		src := rand.NewSource(seed).(rand.Source64)
		raw := newSource(seed)
		for i := 0; i < 3*607; i++ {
			if a, b := src.Uint64(), raw.Uint64(); a != b {
				t.Fatalf("seed %d step %d: generator %d != stock %d", seed, i, b, a)
			}
		}
		if raw.draws != 3*607 {
			t.Fatalf("seed %d: %d draws counted, want %d", seed, raw.draws, 3*607)
		}
	}
}

// TestRestoreResumesExactly: restoring from a mid-stream State must
// continue the identical value sequence, including through the variable
// draw counts of the ziggurat (NormFloat64) rejection loop.
func TestRestoreResumesExactly(t *testing.T) {
	r := New(42)
	for i := 0; i < 1234; i++ {
		r.NormFloat64()
		r.Float64()
	}
	st := r.State()
	want := make([]float64, 64)
	for i := range want {
		want[i] = r.NormFloat64()
	}

	re := Restore(st)
	if re.State() != st {
		t.Fatalf("restored state %+v, want %+v", re.State(), st)
	}
	for i := range want {
		if got := re.NormFloat64(); got != want[i] {
			t.Fatalf("draw %d after restore: %v, want %v", i, got, want[i])
		}
	}
}

// TestRestoreInto validates seed and position checks.
func TestRestoreInto(t *testing.T) {
	fresh := New(5)
	fresh.Float64() // construction-style draw
	mid := New(5)
	for i := 0; i < 10; i++ {
		mid.Float64()
	}
	if _, err := RestoreInto(fresh, State{Seed: 6, Draws: 10}); err == nil {
		t.Fatal("seed mismatch not rejected")
	}
	if _, err := RestoreInto(fresh, State{Seed: 5, Draws: 0}); err == nil {
		t.Fatal("position behind construction not rejected")
	}
	re, err := RestoreInto(fresh, mid.State())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mid.Float64(), re.Float64(); a != b {
		t.Fatalf("restored stream diverged: %v != %v", b, a)
	}
}

// TestZeroStateIsFresh: State{Seed: s} restores to a fresh stream.
func TestZeroStateIsFresh(t *testing.T) {
	a := New(9)
	b := Restore(State{Seed: 9})
	for i := 0; i < 32; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: %v != %v", i, x, y)
		}
	}
}
