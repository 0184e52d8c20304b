package linalg

import (
	"fmt"
	"math"
)

// In-place variants of the matrix operations. The allocating methods on
// Matrix stay the ergonomic default for fitting code; these exist for the
// per-step hot paths (the Kalman and Wiener decoders in internal/decode)
// where every tick would otherwise allocate a handful of intermediates.
// All destinations must be pre-shaped by the caller and — unless noted —
// must not alias the sources.

// shapeCheck panics with a descriptive message on a shape mismatch; the
// in-place API keeps the package's panic-on-misuse convention (shapes are
// static properties of the calling decoder, not data-dependent).
func shapeCheck(cond bool, format string, args ...any) {
	if !cond {
		panic("linalg: " + fmt.Sprintf(format, args...))
	}
}

// MulInto computes a·b into dst. dst must be a.Rows×b.Cols and must not
// alias a or b.
func MulInto(dst, a, b Matrix) {
	shapeCheck(a.Cols == b.Rows, "MulInto inner dimension %d != %d", a.Cols, b.Rows)
	shapeCheck(dst.Rows == a.Rows && dst.Cols == b.Cols,
		"MulInto destination %d×%d != %d×%d", dst.Rows, dst.Cols, a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		dstRow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, v := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			if v == 0 {
				continue
			}
			bRow := b.Data[k*b.Cols : (k+1)*b.Cols]
			bRow = bRow[:len(dstRow)]
			for j, x := range bRow {
				dstRow[j] += v * x
			}
		}
	}
}

// AddInto computes a + b into dst. dst may alias a or b.
func AddInto(dst, a, b Matrix) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols && dst.Rows == a.Rows && dst.Cols == a.Cols,
		"AddInto shape mismatch")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SubInto computes a − b into dst. dst may alias a or b.
func SubInto(dst, a, b Matrix) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols && dst.Rows == a.Rows && dst.Cols == a.Cols,
		"SubInto shape mismatch")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// TInto writes aᵀ into dst. dst must be a.Cols×a.Rows and not alias a.
func TInto(dst, a Matrix) {
	shapeCheck(dst.Rows == a.Cols && dst.Cols == a.Rows,
		"TInto destination %d×%d != %d×%d", dst.Rows, dst.Cols, a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			dst.Set(j, i, a.At(i, j))
		}
	}
}

// CopyInto copies a into dst of the same shape.
func CopyInto(dst, a Matrix) {
	shapeCheck(dst.Rows == a.Rows && dst.Cols == a.Cols, "CopyInto shape mismatch")
	copy(dst.Data, a.Data)
}

// IdentityInto overwrites the square dst with the identity.
func IdentityInto(dst Matrix) {
	shapeCheck(dst.Rows == dst.Cols, "IdentityInto needs a square matrix, got %d×%d", dst.Rows, dst.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < dst.Rows; i++ {
		dst.Set(i, i, 1)
	}
}

// InverseInto inverts a into dst using work as elimination scratch; a is
// preserved. dst and work must be square matrices of a's shape and must
// not alias a or each other. It is the package's one Gauss–Jordan kernel
// (Inverse wraps it): partial pivoting on the largest |entry|, ErrSingular
// below a 1e-12 pivot, and every entry of dst bit-identical to the
// accessor loop in reference_test.go.
//
// The kernel indexes row slices instead of At/Set and updates work only
// from the pivot column rightwards: the entries to its left are never
// read again (the pivot search reads column col, a row's factor is its
// column-col entry). Every dst update stays, zero entries included —
// skipping one would flip the sign of some zeros.
func InverseInto(dst, work, a Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: cannot invert %d×%d matrix", a.Rows, a.Cols)
	}
	shapeCheck(dst.Rows == a.Rows && dst.Cols == a.Cols, "InverseInto destination shape mismatch")
	shapeCheck(work.Rows == a.Rows && work.Cols == a.Cols, "InverseInto scratch shape mismatch")
	n := a.Rows
	CopyInto(work, a)
	IdentityInto(dst)
	w, d := work.Data, dst.Data
	for col := 0; col < n; col++ {
		pivot, best := col, math.Abs(w[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w[r*n+col]); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-12 {
			return ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(dst, pivot, col)
		}
		wc := w[col*n+col : (col+1)*n]
		dc := d[col*n : (col+1)*n]
		p := wc[0]
		for j := range wc {
			wc[j] /= p
		}
		for j := range dc {
			dc[j] /= p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			wr := w[r*n+col : (r+1)*n]
			f := wr[0]
			if f == 0 {
				continue
			}
			axpyNeg(wr, wc, f)
			axpyNeg(d[r*n:(r+1)*n], dc, f)
		}
	}
	return nil
}

// axpyNeg computes dst[j] -= f·src[j], one rounded product and one
// rounded difference per entry; len(dst) must equal len(src).
func axpyNeg(dst, src []float64, f float64) {
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] -= f * v
	}
}

// MulVecInto computes m·v into dst of length m.Rows. dst must not alias v.
func MulVecInto(dst []float64, m Matrix, v []float64) {
	shapeCheck(len(v) == m.Cols, "MulVecInto length %d != cols %d", len(v), m.Cols)
	shapeCheck(len(dst) == m.Rows, "MulVecInto destination length %d != rows %d", len(dst), m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range v {
			s += row[j] * x
		}
		dst[i] = s
	}
}
