// Package linalg provides the small dense linear-algebra kernel used by
// the CTMC and phase-type packages: matrices in row-major storage, LU
// factorization with partial pivoting, and linear-system solving.
//
// It exists because the analytical side of the paper — phase-type
// moments (eq. 2–3), the eq. 4 sample-mean density, CTMC steady
// states — reduces to solving Ax = b for generator-derived matrices,
// and pulling in a BLAS binding for that would break the repository's
// no-external-dependencies and bit-reproducibility constraints: this
// kernel always evaluates the same operations in the same order, so
// the derived figures are stable across platforms and library
// versions.
//
// The matrices in this repository are tiny (tens of states, one per
// queue phase), so clarity wins over blocking and vectorization:
// textbook LU with partial pivoting, O(n³) without tricks, with
// explicit singularity detection so a degenerate generator surfaces as
// an error instead of NaNs propagating into committed results.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"rejuv/internal/num"
)

// ErrSingular is returned when a factorization or solve meets a matrix
// that is numerically singular.
var ErrSingular = errors.New("linalg: matrix is singular")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix returns a zero-filled rows x cols matrix. It panics on
// non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be non-empty and
// of equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows needs at least one non-empty row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments the element at (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LU is an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu   *Matrix
	perm []int
}

// Factor computes the LU factorization of the square matrix a.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Factor needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at or below diag.
		pivot, pivotVal := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > pivotVal {
				pivot, pivotVal = r, v
			}
		}
		if num.Zero(pivotVal) {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				v := lu.At(col, j)
				lu.Set(col, j, lu.At(pivot, j))
				lu.Set(pivot, j, v)
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if num.Zero(f) {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.Add(r, j, -f*lu.At(col, j))
			}
		}
	}
	return &LU{lu: lu, perm: perm}, nil
}

// Solve returns x with A*x = b for the factored A.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve dimension mismatch %d != %d", len(b), n)
	}
	x := make([]float64, n)
	// Apply permutation.
	for i, p := range f.perm {
		x[i] = b[p]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if num.Zero(d) {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Solve returns x with a*x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Ones returns a length-n vector of ones.
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
