package linalg

import (
	"fmt"
	"math"
)

// referenceInverse is the accessor-loop Gauss–Jordan elimination the
// kernels in this package must reproduce bit for bit: partial pivoting on
// the largest |entry| (first row wins a tie), ErrSingular below 1e-12, the
// pivot row divided through by the pivot, then every other row with a
// non-zero factor reduced across all n columns of both matrices. The
// InverseInto oracle test compares every entry's bits and the returned
// error against this loop.
func referenceInverse(m Matrix) (Matrix, error) {
	if m.Rows != m.Cols {
		return Matrix{}, fmt.Errorf("linalg: cannot invert %d×%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot, best := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-12 {
			return Matrix{}, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize pivot row.
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		// Eliminate.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

// referenceMul is the accessor-loop product MulInto must reproduce bit
// for bit: zero entries of a skipped, each output accumulated in k order.
func referenceMul(a, b Matrix) Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			v := a.At(i, k)
			if v == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Set(i, j, out.At(i, j)+v*b.At(k, j))
			}
		}
	}
	return out
}
