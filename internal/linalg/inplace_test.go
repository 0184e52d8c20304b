package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports the first entry whose bits differ, or -1.
func sameBits(got, want Matrix) int {
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return i
		}
	}
	return -1
}

func randomMatrix(rng *rand.Rand, n int) Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// spdMatrix is an innovation-covariance-shaped input: B·Bᵀ/k plus a small
// diagonal, the form the Kalman decoder inverts every step.
func spdMatrix(rng *rand.Rand, n, k int) Matrix {
	b := NewMatrix(n, k)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	m := b.Mul(b.T()).Scale(1 / float64(k))
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+1e-6)
	}
	return m
}

// inverseOracleCases builds the inputs InverseInto must match the oracle
// on, bit for bit and error for error.
func inverseOracleCases() map[string]Matrix {
	rng := rand.New(rand.NewSource(20))
	cases := map[string]Matrix{}
	for n := 1; n <= 40; n++ {
		cases[fmt.Sprintf("dense/n=%d", n)] = randomMatrix(rng, n)
	}
	for _, n := range []int{2, 8, 32} {
		for _, k := range []int{2, n} {
			cases[fmt.Sprintf("spd/n=%d/rank=%d", n, k)] = spdMatrix(rng, n, k)
		}
	}
	// Exact zeros of both signs: sparse rows give zero elimination
	// factors (skipped rows) and zero pivot-row entries (kept updates).
	for _, n := range []int{3, 9, 32} {
		m := randomMatrix(rng, n)
		for i := range m.Data {
			switch rng.Intn(4) {
			case 0, 1:
				m.Data[i] = 0
			case 2:
				m.Data[i] = math.Copysign(0, -1)
			}
		}
		for i := 0; i < n; i++ {
			m.Set(i, i, float64(n)*(1+rng.Float64()))
		}
		cases[fmt.Sprintf("sparse/n=%d", n)] = m
	}
	// Small-integer sparse inputs whose inverses keep exact zeros: here a
	// kernel that skips the dst update where the pivot row holds a zero
	// returns +0 where the oracle has -0 or the reverse (the first case
	// is the smallest such input found).
	cases["signed-zero/n=3"] = FromRows([][]float64{{0, 3, 0}, {0, -3, 2}, {-1, 0, 3}})
	for i := 0; i < 200; i++ {
		n := 2 + i%7
		m := NewMatrix(n, n)
		for j := range m.Data {
			if rng.Intn(2) == 0 {
				m.Data[j] = float64(rng.Intn(7) - 3)
			}
		}
		cases[fmt.Sprintf("signed-zero/int/%d", i)] = m
	}
	// Negative pivots: normalisation turns +0 into -0 in the dst row.
	for _, n := range []int{2, 5, 32} {
		m := randomMatrix(rng, n)
		for i := 0; i < n; i++ {
			m.Set(i, i, -2*float64(n))
		}
		cases[fmt.Sprintf("negative-pivot/n=%d", n)] = m
		cases[fmt.Sprintf("negative-identity/n=%d", n)] = Identity(n).Scale(-1)
	}
	cases["permutation"] = FromRows([][]float64{{0, 1, 0}, {0, 0, -1}, {1, 0, 0}})
	// Pivots straddling the 1e-12 singularity tolerance.
	for name, v := range map[string]float64{
		"at":    1e-12,
		"above": math.Nextafter(1e-12, 1),
		"below": math.Nextafter(1e-12, 0),
		"tiny":  1e-13,
	} {
		cases["near-singular-diag/"+name] = FromRows([][]float64{{1, 0.5}, {0, -v}})
		// The small pivot appears only after elimination: the second
		// row is the first plus v in the last column.
		m := randomMatrix(rng, 4)
		for j := 0; j < 4; j++ {
			m.Set(1, j, m.At(0, j))
		}
		m.Set(1, 3, m.At(1, 3)+v)
		cases["near-singular-eliminated/"+name] = m
	}
	// ErrSingular inputs.
	cases["singular/zero"] = NewMatrix(5, 5)
	dup := randomMatrix(rng, 6)
	copy(dup.Data[4*6:5*6], dup.Data[1*6:2*6])
	cases["singular/duplicate-row"] = dup
	zeroCol := randomMatrix(rng, 32)
	for i := 0; i < 32; i++ {
		zeroCol.Set(i, 17, 0)
	}
	cases["singular/zero-column"] = zeroCol
	cases["singular/rank-deficient-spd"] = FromRows([][]float64{{1, 2}, {2, 4}})
	// Non-finite inputs take the same arithmetic path.
	nonFinite := randomMatrix(rng, 4)
	nonFinite.Set(2, 1, math.Inf(1))
	nonFinite.Set(3, 3, math.NaN())
	cases["non-finite"] = nonFinite
	return cases
}

// TestInverseIntoMatchesOracle pins the Gauss–Jordan kernel to the
// accessor-loop oracle: every entry's bits and the returned error, for
// dense, SPD, sparse, negative-pivot, near-singular and singular inputs,
// through both InverseInto (on dirty scratch) and Inverse. Some expected
// inverse must hold a -0, or the cases could not catch a kernel that
// skips a zero update.
func TestInverseIntoMatchesOracle(t *testing.T) {
	negZeros := 0
	for name, a := range inverseOracleCases() {
		want, wantErr := referenceInverse(a)
		for _, v := range want.Data {
			if v == 0 && math.Signbit(v) {
				negZeros++
			}
		}
		orig := a.Clone()
		n := a.Rows
		dst, work := NewMatrix(n, n), NewMatrix(n, n)
		for i := range dst.Data {
			dst.Data[i], work.Data[i] = math.NaN(), -1
		}
		err := InverseInto(dst, work, a)
		if err != wantErr {
			t.Errorf("%s: InverseInto error %v, oracle %v", name, err, wantErr)
			continue
		}
		if i := sameBits(a, orig); i >= 0 {
			t.Errorf("%s: InverseInto modified its input at %d", name, i)
		}
		inv, invErr := a.Inverse()
		if invErr != wantErr {
			t.Errorf("%s: Inverse error %v, oracle %v", name, invErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if i := sameBits(dst, want); i >= 0 {
			t.Errorf("%s: InverseInto entry %d = %v (%#x), oracle %v (%#x)", name, i,
				dst.Data[i], math.Float64bits(dst.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
		if i := sameBits(inv, want); i >= 0 {
			t.Errorf("%s: Inverse entry %d = %v, oracle %v", name, i, inv.Data[i], want.Data[i])
		}
	}
	if negZeros == 0 {
		t.Error("no oracle inverse contains a negative zero")
	}
}

// TestMulIntoMatchesOracle pins MulInto (and Mul, its allocating
// wrapper) to the accessor-loop product, bit for bit, with exact zeros of both signs in both operands.
func TestMulIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 32, 32}, {32, 2, 32}, {32, 32, 32}, {5, 7, 3}} {
		a, b := NewMatrix(dims[0], dims[1]), NewMatrix(dims[1], dims[2])
		for _, m := range []Matrix{a, b} {
			for i := range m.Data {
				switch rng.Intn(5) {
				case 0:
					m.Data[i] = 0
				case 1:
					m.Data[i] = math.Copysign(0, -1)
				default:
					m.Data[i] = rng.NormFloat64()
				}
			}
		}
		got := NewMatrix(dims[0], dims[2])
		for i := range got.Data {
			got.Data[i] = math.NaN()
		}
		MulInto(got, a, b)
		want := referenceMul(a, b)
		if i := sameBits(got, want); i >= 0 {
			t.Errorf("%v: MulInto entry %d = %v, oracle %v", dims, i, got.Data[i], want.Data[i])
		}
		if i := sameBits(a.Mul(b), want); i >= 0 {
			t.Errorf("%v: Mul entry %d differs from the oracle", dims, i)
		}
	}
}

// BenchmarkInverseInto32 times one inversion of the Kalman decoder's
// 32×32 innovation covariance shape.
func BenchmarkInverseInto32(b *testing.B) {
	a := spdMatrix(rand.New(rand.NewSource(1)), 32, 32)
	dst, work := NewMatrix(32, 32), NewMatrix(32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := InverseInto(dst, work, a); err != nil {
			b.Fatal(err)
		}
	}
}
