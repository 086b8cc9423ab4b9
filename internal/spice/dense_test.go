package spice

import (
	"math"
	"testing"
)

// TestSolveDenseTable exercises the dense elimination kernel on the
// edge cases the Newton loops rely on: pivoting off a zero diagonal,
// the singular-matrix identity patch (isolated unknowns solve to 0
// instead of failing the whole operating point), and degenerate sizes.
func TestSolveDenseTable(t *testing.T) {
	cases := []struct {
		name string
		j    [][]float64
		b    []float64
		want []float64
	}{
		{
			name: "empty system",
			j:    [][]float64{},
			b:    []float64{},
			want: []float64{},
		},
		{
			name: "scalar",
			j:    [][]float64{{4}},
			b:    []float64{2},
			want: []float64{0.5},
		},
		{
			name: "diagonal",
			j:    [][]float64{{2, 0}, {0, 5}},
			b:    []float64{4, 10},
			want: []float64{2, 2},
		},
		{
			name: "zero diagonal needs row pivot",
			j:    [][]float64{{0, 1}, {1, 0}},
			b:    []float64{1, 2},
			want: []float64{2, 1},
		},
		{
			name: "conductance-style 3x3",
			// G-matrix of two 1-ohm resistors a-b, b-c with 1 S to
			// ground on a and c; inject 1 A into a.
			j:    [][]float64{{2, -1, 0}, {-1, 2, -1}, {0, -1, 2}},
			b:    []float64{1, 0, 0},
			want: []float64{0.75, 0.5, 0.25},
		},
		{
			name: "small pivot magnitude ordering",
			// Partial pivoting must pick the 10 in row 1 over the 1e-14
			// in row 0 or lose all precision.
			j:    [][]float64{{1e-14, 1}, {10, 1}},
			b:    []float64{1, 2},
			want: []float64{0.1, 1},
		},
		{
			name: "singular: isolated unknown patched to zero",
			// Unknown 1 has an all-zero row and column (a node with no
			// devices attached): it must come back 0, the rest solved.
			j:    [][]float64{{2, 0, -1}, {0, 0, 0}, {-1, 0, 2}},
			b:    []float64{1, 0, 1},
			want: []float64{1, 0, 1},
		},
		{
			name: "all-zero matrix solves to zero",
			j:    [][]float64{{0, 0}, {0, 0}},
			b:    []float64{0, 0},
			want: []float64{0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, err := solveDense(tc.j, tc.b)
			if err != nil {
				t.Fatalf("solveDense: %v", err)
			}
			if len(x) != len(tc.want) {
				t.Fatalf("len(x) = %d, want %d", len(x), len(tc.want))
			}
			for i := range x {
				if math.Abs(x[i]-tc.want[i]) > 1e-9 {
					t.Errorf("x[%d] = %g, want %g (full %v)", i, x[i], tc.want[i], x)
				}
			}
		})
	}
}

// TestSolveDenseResidual cross-checks the kernel on a dense asymmetric
// system by residual instead of a precomputed solution: the inputs are
// clobbered, so the check runs against saved copies.
func TestSolveDenseResidual(t *testing.T) {
	j := [][]float64{
		{4, -1, 0.5, 0},
		{2, 6, -1, 0.25},
		{0, -0.5, 3, -1},
		{1, 0, -2, 5},
	}
	b := []float64{1, -2, 0.5, 3}
	jSave := make([][]float64, len(j))
	for i, row := range j {
		jSave[i] = append([]float64(nil), row...)
	}
	bSave := append([]float64(nil), b...)

	x, err := solveDense(j, b)
	if err != nil {
		t.Fatal(err)
	}
	for r := range jSave {
		sum := 0.0
		for c := range jSave[r] {
			sum += jSave[r][c] * x[c]
		}
		if math.Abs(sum-bSave[r]) > 1e-12 {
			t.Errorf("row %d residual %g", r, sum-bSave[r])
		}
	}
}

// solveDense solves J x = b in place with partial pivoting (J and b
// are clobbered): the dense oracle the sparse LU is tested against.
// A zero pivot (an isolated unknown) is patched to identity, leaving
// that unknown's update at zero, as the sparse refactor does.
func solveDense(j [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		best := math.Abs(j[col][col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(j[r][col]); a > best {
				best, p = a, r
			}
		}
		if best == 0 {
			j[col][col] = 1
			b[col] = 0
			continue
		}
		j[col], j[p] = j[p], j[col]
		b[col], b[p] = b[p], b[col]
		inv := 1 / j[col][col]
		for r := col + 1; r < n; r++ {
			fac := j[r][col] * inv
			if fac == 0 {
				continue
			}
			for c := col; c < n; c++ {
				j[r][c] -= fac * j[col][c]
			}
			b[r] -= fac * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= j[r][c] * x[c]
		}
		x[r] = sum / j[r][r]
	}
	return x, nil
}
