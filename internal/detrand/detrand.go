// Package detrand is the repository's one seeded random generator: a
// stream whose position is observable and restorable, so the
// checkpoint/restore machinery (internal/serve) can freeze a live
// pipeline mid-run and later resume it bit-identically. A stream's full
// state is the pair (seed, draws): the seed it started from and the
// number of generator steps consumed since. Restore re-seeds and
// fast-forwards the counted number of steps — O(n) in draws, which for
// simulation workloads (a few hundred draws per tick) is microseconds per
// restored stream.
//
// The generator is math/rand's additive lagged Fibonacci source, copied
// verbatim into rng.go (only the package line differs, so a diff against
// $GOROOT/src/math/rand/rng.go is its review), held by value so every
// sampler steps it with direct, inlinable calls. The samplers — Float64,
// NormFloat64 and their bulk forms FillFloat64 and FillNorm — are
// math/rand's algorithms over that step, each counting the steps it
// consumes. A stream seeded s therefore yields exactly the values
// rand.New(rand.NewSource(s)) would, call for call.
//
// That equality is load-bearing for every digest pin in the repository:
// the synthetic cortex, the channel noise, the fault processes, drift and
// the decoders' initialisation all draw from detrand streams, and their
// recorded outputs were first produced on math/rand. math/rand survives
// only as the test oracle: TestSequenceMatchesMathRand,
// TestSamplersBitIdentical and FuzzSequenceMatchesMathRand replay every
// sampler against a stock twin, and TestNoMathRandOutsideTests (in the
// module root) keeps it out of non-test code.
package detrand

import "fmt"

// State is a stream's serializable position: the seed it started from and
// the number of generator steps consumed since.
type State struct {
	Seed  int64
	Draws uint64
}

// Rand is a seeded generator stream that counts its steps. Every sampler
// advances draws by exactly the number of generator steps it consumed, so
// draws is the generator's absolute position whichever samplers ran.
type Rand struct {
	rng   rngSource
	seed  int64
	draws uint64
}

// New returns a stream seeded like rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	r := &Rand{seed: seed}
	r.rng.Seed(seed)
	return r
}

// State returns the stream's serializable position.
func (r *Rand) State() State {
	return State{Seed: r.seed, Draws: r.draws}
}

// Draws returns the number of generator steps consumed so far.
func (r *Rand) Draws() uint64 { return r.draws }

// Restore rebuilds a stream at the recorded position by re-seeding and
// fast-forwarding st.Draws steps.
func Restore(st State) *Rand {
	r := New(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		r.rng.Uint64()
	}
	r.draws = st.Draws
	return r
}

// RestoreInto validates that st belongs to the stream r was created on
// (same seed, position not behind r's current one when r is freshly
// constructed) and returns the restored generator. It exists for
// components that rebuild themselves from config first — their
// construction draws must be a prefix of the recorded stream.
func RestoreInto(r *Rand, st State) (*Rand, error) {
	if st.Seed != r.seed {
		return nil, fmt.Errorf("detrand: state seed %d does not match stream seed %d", st.Seed, r.seed)
	}
	if st.Draws < r.draws {
		return nil, fmt.Errorf("detrand: state position %d behind construction position %d", st.Draws, r.draws)
	}
	return Restore(st), nil
}
