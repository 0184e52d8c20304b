package detrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestSamplersBitIdentical replays long interleaved sequences and checks
// the samplers agree bit for bit with math/rand's on an identically
// seeded twin, raw generator steps mixed in. The sequence length covers
// the ziggurat tail and wedge branches many times over, so a ziggurat
// table that buildZigTables got wrong fails here.
func TestSamplersBitIdentical(t *testing.T) {
	for _, seed := range []int64{0, 1, 3, 99, -7, 1 << 40} {
		ref, cs := newTwin(seed)
		got := New(seed)
		for i := 0; i < 200_000; i++ {
			switch i % 3 {
			case 0:
				want, have := ref.NormFloat64(), got.NormFloat64()
				if math.Float64bits(want) != math.Float64bits(have) {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != stock %v", seed, i, have, want)
				}
			case 1:
				if want, have := ref.Float64(), got.Float64(); want != have {
					t.Fatalf("seed %d draw %d: Float64 %v != stock %v", seed, i, have, want)
				}
			default:
				if want, have := ref.Int63(), got.int63(); want != have {
					t.Fatalf("seed %d draw %d: Int63 %v != stock %v", seed, i, have, want)
				}
			}
		}
		if got.Draws() != cs.steps {
			t.Fatalf("seed %d: %d draws counted, stock source stepped %d", seed, got.Draws(), cs.steps)
		}
	}
}

// TestSamplersCountDraws pins that the samplers consume exactly the
// steps math/rand's would, so checkpoints taken around their draws
// restore onto the stock sequence.
func TestSamplersCountDraws(t *testing.T) {
	ref, cs := newTwin(17)
	r := New(17)
	for i := 0; i < 1000; i++ {
		ref.NormFloat64()
		ref.Float64()
		r.NormFloat64()
		r.Float64()
	}
	st := r.State()
	if st.Draws != cs.steps {
		t.Fatalf("%d draws counted, stock source stepped %d", st.Draws, cs.steps)
	}
	resumed, err := RestoreInto(New(17), st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		want, got := ref.NormFloat64(), resumed.NormFloat64()
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("draw %d after restore: %v != stock %v", i, got, want)
		}
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// TestFillNormBitIdentical pins the bulk sampler against the stock
// per-call sequence, including draw-count equality across odd slab
// sizes (rejection paths consume extra steps; the batched counter must
// land exactly where per-call counting would).
func TestFillNormBitIdentical(t *testing.T) {
	for _, seed := range []int64{0, 1, 3, 99, -7, 1 << 40} {
		ref, cs := newTwin(seed)
		r := New(seed)
		buf := make([]float64, 1000)
		for _, n := range []int{1, 2, 7, 64, 257, 1000} {
			r.FillNorm(buf[:n])
			for i := 0; i < n; i++ {
				want := ref.NormFloat64()
				if math.Float64bits(want) != math.Float64bits(buf[i]) {
					t.Fatalf("seed %d block %d draw %d: %v != stock %v", seed, n, i, buf[i], want)
				}
			}
			if r.Draws() != cs.steps {
				t.Fatalf("seed %d block %d: draws %d != stock %d", seed, n, r.Draws(), cs.steps)
			}
			// Interleave a uniform draw so the streams stay aligned through
			// mixed use.
			if ref.Float64() != r.Float64() {
				t.Fatalf("seed %d: interleaved uniform diverged", seed)
			}
		}
	}
}

func BenchmarkFillNorm(b *testing.B) {
	r := New(1)
	buf := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.FillNorm(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/draw")
}

// TestFillFloat64BitIdentical pins the bulk uniform sampler against the
// stock per-call Float64 on a twin stream, interleaved with Float64 and
// NormFloat64 calls (whose ziggurat rejections consume extra steps),
// with the draw counts equal after every block.
func TestFillFloat64BitIdentical(t *testing.T) {
	for _, seed := range sequenceSeeds {
		ref, cs := newTwin(seed)
		r := New(seed)
		buf := make([]float64, 1000)
		for round, n := range []int{0, 1, 2, 7, 64, 257, 1000, 3, 607, 608} {
			r.FillFloat64(buf[:n])
			for i := 0; i < n; i++ {
				if want := ref.Float64(); math.Float64bits(want) != math.Float64bits(buf[i]) {
					t.Fatalf("seed %d block %d draw %d: %v != stock %v", seed, n, i, buf[i], want)
				}
			}
			if r.Draws() != cs.steps {
				t.Fatalf("seed %d block %d: draws %d != stock %d", seed, n, r.Draws(), cs.steps)
			}
			if round%2 == 0 {
				if x, y := ref.NormFloat64(), r.NormFloat64(); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("seed %d: interleaved normal diverged", seed)
				}
			} else if ref.Float64() != r.Float64() {
				t.Fatalf("seed %d: interleaved uniform diverged", seed)
			}
		}
	}
}

// scriptedSource replays a fixed Int63 sequence, so the stock
// rand.Rand.Float64 can be run on values no seed is known to produce.
type scriptedSource struct{ vals []int64 }

func (s *scriptedSource) Int63() int64 {
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

func (s *scriptedSource) Uint64() uint64 { return uint64(s.Int63()) }
func (s *scriptedSource) Seed(int64)     {}

// TestFloat64RedrawsOne exercises the f == 1 redraw, which no seed is
// known to reach: Int63 values within 2^9 of 2^63 convert to exactly 1.
// The generator's feedback register is set so its first two steps
// return such values; Float64 and FillFloat64 must both skip them,
// return what the stock Float64 returns on the same Int63 sequence, and
// count every skipped step.
func TestFloat64RedrawsOne(t *testing.T) {
	if unitFloat(math.MaxInt64) != 1 || unitFloat(math.MaxInt64-511) != 1 {
		t.Fatal("Int63 values next to 2^63 do not convert to 1")
	}
	if f := unitFloat(math.MaxInt64 - 512); f >= 1 {
		t.Fatalf("unitFloat(2^63−513) = %v, want < 1", f)
	}
	// A fresh generator's first steps read vec[feed−1] + vec[tap−1]
	// with tap wrapping to the end of the register.
	forge := func() *Rand {
		r := New(5)
		v := &r.rng.vec
		v[rngLen-rngTap-1], v[rngLen-1] = math.MaxInt64, 0
		v[rngLen-rngTap-2], v[rngLen-2] = math.MaxInt64-100, 0
		return r
	}
	peek := forge().rng // by value: the script, not the stream under test
	script := make([]int64, 8)
	for i := range script {
		script[i] = peek.Int63()
	}
	if script[0] != math.MaxInt64 || script[1] != math.MaxInt64-100 {
		t.Fatalf("forged register yields %d, %d", script[0], script[1])
	}
	ref := rand.New(&scriptedSource{vals: script})
	want := []float64{ref.Float64(), ref.Float64()}
	if want[0] >= 1 || want[0] != unitFloat(script[2]) {
		t.Fatalf("stock Float64 returned %v, want the third step %v", want[0], unitFloat(script[2]))
	}

	for name, draw := range map[string]func(*Rand) []float64{
		"Float64":     func(r *Rand) []float64 { return []float64{r.Float64(), r.Float64()} },
		"FillFloat64": func(r *Rand) []float64 { buf := make([]float64, 2); r.FillFloat64(buf); return buf },
	} {
		r := forge()
		got := draw(r)
		if got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s: %v, want %v", name, got, want)
		}
		if r.Draws() != 4 {
			t.Errorf("%s: %d draws counted, want 4 (two redraws)", name, r.Draws())
		}
	}
}

func BenchmarkFillFloat64(b *testing.B) {
	r := New(1)
	buf := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.FillFloat64(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/draw")
}

// FuzzSequenceMatchesMathRand runs an arbitrary script of sampler calls
// on a stream of an arbitrary seed and on its math/rand twin. Each script
// byte picks an operation: Float64, NormFloat64, FillFloat64(k),
// FillNorm(k) — k is the next byte — or a State→Restore of the stream
// mid-script. Values must agree bit for bit and Draws must equal the
// twin's step count after every operation.
func FuzzSequenceMatchesMathRand(f *testing.F) {
	for _, seed := range sequenceSeeds {
		f.Add(seed, []byte{0, 1, 2, 7, 3, 64, 4, 0, 1, 3, 255, 2, 0, 4, 1})
	}
	f.Add(int64(42), []byte{3, 200, 3, 200, 4, 3, 200, 2, 130, 4, 4, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		// A restore replays every draw so far, so a long script costs
		// quadratic time; 64 bytes keeps an execution well under a
		// millisecond, which the fuzzer's minimizer needs.
		if len(script) > 64 {
			script = script[:64]
		}
		ref, cs := newTwin(seed)
		r := New(seed)
		buf := make([]float64, 255)
		for pc := 0; pc < len(script); pc++ {
			op := script[pc] % 5
			k := 0
			if (op == 2 || op == 3) && pc+1 < len(script) {
				pc++
				k = int(script[pc])
			}
			switch op {
			case 0:
				if want, got := ref.Float64(), r.Float64(); want != got {
					t.Fatalf("op %d: Float64 %v != stock %v", pc, got, want)
				}
			case 1:
				if want, got := ref.NormFloat64(), r.NormFloat64(); math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("op %d: NormFloat64 %v != stock %v", pc, got, want)
				}
			case 2:
				r.FillFloat64(buf[:k])
				for i, got := range buf[:k] {
					if want := ref.Float64(); want != got {
						t.Fatalf("op %d: FillFloat64(%d)[%d] %v != stock %v", pc, k, i, got, want)
					}
				}
			case 3:
				r.FillNorm(buf[:k])
				for i, got := range buf[:k] {
					if want := ref.NormFloat64(); math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("op %d: FillNorm(%d)[%d] %v != stock %v", pc, k, i, got, want)
					}
				}
			case 4:
				st := r.State()
				r = Restore(st)
				if r.State() != st {
					t.Fatalf("op %d: restored state %+v, want %+v", pc, r.State(), st)
				}
			}
			if r.Draws() != cs.steps {
				t.Fatalf("op %d: %d draws counted, stock source stepped %d", pc, r.Draws(), cs.steps)
			}
		}
	})
}
