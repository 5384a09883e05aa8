package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5, x + 3y = 10 -> x = 1, y = 3.
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("Solve = %v, want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("Solve singular error = %v, want ErrSingular", err)
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	// Property: for diagonally dominant A (never singular), A*(solve(A,b)) == b.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.Float64()*2 - 1
					a.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			a.Set(i, i, rowSum+1+rng.Float64())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range b {
			back := 0.0
			for j, xj := range x {
				back += a.At(i, j) * xj
			}
			if !almostEqual(back, b[i], 1e-9) {
				t.Fatalf("trial %d: row %d of A*x = %v, want %v", trial, i, back, b[i])
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestScale(t *testing.T) {
	a := FromRows([][]float64{{1, -2}}).Scale(3)
	if a.At(0, 0) != 3 || a.At(0, 1) != -6 {
		t.Fatalf("Scale = %v", a)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDimensionPanics(t *testing.T) {
	tests := []struct {
		name string
		f    func()
	}{
		{"NewMatrix zero rows", func() { NewMatrix(0, 1) }},
		{"FromRows ragged", func() { FromRows([][]float64{{1}, {1, 2}}) }},
		{"Dot mismatch", func() { Dot([]float64{1}, []float64{1, 2}) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tt.name)
				}
			}()
			tt.f()
		})
	}
}

func TestFactorNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Fatal("Factor accepted a non-square matrix")
	}
}

func TestOnes(t *testing.T) {
	v := Ones(3)
	if len(v) != 3 || v[0] != 1 || v[1] != 1 || v[2] != 1 {
		t.Fatalf("Ones(3) = %v", v)
	}
}
