package spice

import (
	"container/heap"
	"sort"
)

// This file is the sparse linear-algebra kernel behind the analytic
// Newton solvers (see stamp.go and DESIGN.md §13): an LU factorization
// whose expensive decisions — the fill-reducing elimination order and
// the fill pattern of the factors — are made once per compiled engine
// and then reused by every numeric refactorization, across Newton
// iterations, timesteps, and pooled runs.
//
// The design follows the classic circuit-simulator recipe (Sparse 1.x,
// KLU): order with minimum degree on the symmetrized pattern, compute
// the up-looking symbolic factorization of PAPᵀ under that static
// pivot order, then make each numeric pass a flat scatter/eliminate/
// gather over the precomputed pattern with no allocation and no
// searching. Static (diagonal) pivoting is safe here because the
// assembled systems carry a diagonal load on their free nodes: gmin
// during DC solves, capacitor companion conductances c/dt and device
// output conductances during transient steps. A diagonal that still
// vanishes (a structurally isolated unknown) is patched to identity:
// the insensitive unknown stays where it is.

// sparseSym is the symbolic part of the factorization: the elimination
// order and all index structure. It is immutable after construction
// and shared by concurrent runs; per-run numeric state lives in
// sparseNum.
type sparseSym struct {
	n    int
	perm []int32 // perm[k] = matrix row/col eliminated at step k
	ipos []int32 // inverse permutation: ipos[row] = elimination step

	// Static CSR pattern of the assembled matrix A (row-major, matrix
	// index space, each row's columns ascending, diagonal present).
	ap []int32
	ai []int32

	// Factor pattern of L+U in elimination space: row k holds the L
	// part (columns < k, unit-diagonal implicit) followed by the
	// diagonal and the U part, columns ascending.
	fp   []int32
	fi   []int32
	diag []int32 // position of each row's diagonal within fi
}

// sparseNum is the numeric workspace for one factorization: the factor
// values, the identity-patched pivots, and scratch vectors. One
// sparseNum belongs to one runState (or one OperatingPoint call) at a
// time; refactor and solve reuse it without allocating.
type sparseNum struct {
	fval    []float64
	patched []bool
	x       []float64 // scatter workspace, zero outside active row
	y       []float64 // permuted solution workspace
}

func (s *sparseSym) newNum() *sparseNum {
	return &sparseNum{
		fval:    make([]float64, len(s.fi)),
		patched: make([]bool, s.n),
		x:       make([]float64, s.n),
		y:       make([]float64, s.n),
	}
}

// slot returns the index of entry (r, c) in the CSR value array, or -1
// if the entry is not in the pattern. Used at compile time to bake
// stamp destinations; never on the numeric path.
func (s *sparseSym) slot(r, c int32) int32 {
	lo, hi := s.ap[r], s.ap[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ai[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.ap[r+1] && s.ai[lo] == c {
		return lo
	}
	return -1
}

// newSparseSym builds the symbolic factorization for a matrix whose
// row patterns are given as column-index lists (duplicates tolerated;
// the diagonal is added if missing). rows[i] lists the columns with a
// structurally possible nonzero in row i.
func newSparseSym(rows [][]int32) *sparseSym {
	n := len(rows)
	s := &sparseSym{n: n}

	// CSR pattern: sorted, deduped, diagonal ensured.
	s.ap = make([]int32, n+1)
	for i, r := range rows {
		cols := append([]int32{int32(i)}, r...)
		sort.Slice(cols, func(a, b int) bool { return cols[a] < cols[b] })
		k := 0
		for j, c := range cols {
			if j == 0 || c != cols[k-1] {
				cols[k] = c
				k++
			}
		}
		s.ai = append(s.ai, cols[:k]...)
		s.ap[i+1] = int32(len(s.ai))
	}

	s.orderMinDegree()
	s.symbolic()
	return s
}

// orderMinDegree computes a fill-reducing elimination order by plain
// minimum degree on the symmetrized pattern, maintaining the explicit
// elimination graph (eliminating a node makes a clique of its
// neighbors). Ties break to the lowest index, so the order — and
// therefore every downstream result — is deterministic.
func (s *sparseSym) orderMinDegree() {
	n := s.n
	adj := make([]map[int32]struct{}, n)
	for i := range adj {
		adj[i] = map[int32]struct{}{}
	}
	for r := 0; r < n; r++ {
		for idx := s.ap[r]; idx < s.ap[r+1]; idx++ {
			c := s.ai[idx]
			if c != int32(r) {
				adj[r][c] = struct{}{}
				adj[c][int32(r)] = struct{}{}
			}
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	s.perm = make([]int32, n)
	s.ipos = make([]int32, n)
	nbr := make([]int32, 0, 64)
	for step := 0; step < n; step++ {
		best, bestDeg := int32(-1), int(^uint(0)>>1)
		for i := 0; i < n; i++ {
			if alive[i] && len(adj[i]) < bestDeg {
				best, bestDeg = int32(i), len(adj[i])
			}
		}
		s.perm[step] = best
		s.ipos[best] = int32(step)
		alive[best] = false

		nbr = nbr[:0]
		for u := range adj[best] {
			if alive[u] {
				nbr = append(nbr, u)
			}
		}
		sort.Slice(nbr, func(a, b int) bool { return nbr[a] < nbr[b] })
		for _, u := range nbr {
			delete(adj[u], best)
			for _, w := range nbr {
				if w != u {
					adj[u][w] = struct{}{}
				}
			}
		}
	}
}

// colHeap is a min-heap of column indices used by the symbolic pass to
// process pending pivots in ascending elimination order.
type colHeap []int32

func (h colHeap) Len() int            { return len(h) }
func (h colHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h colHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *colHeap) Push(x interface{}) { *h = append(*h, x.(int32)) }
func (h *colHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// symbolic computes the row patterns of L+U under the chosen order:
// row i's pattern is its permuted A-row pattern closed under "merging
// the U part of every pivot row k < i that appears", processed in
// ascending k exactly like the numeric elimination will run.
func (s *sparseSym) symbolic() {
	n := s.n
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	var pend colHeap
	rowPat := make([]int32, 0, 64)
	s.fp = make([]int32, n+1)
	s.diag = make([]int32, n)

	for i := 0; i < n; i++ {
		rowPat = rowPat[:0]
		pend = pend[:0]
		add := func(c int32) {
			if mark[c] == int32(i) {
				return
			}
			mark[c] = int32(i)
			rowPat = append(rowPat, c)
			if c < int32(i) {
				heap.Push(&pend, c)
			}
		}
		r := s.perm[i]
		for idx := s.ap[r]; idx < s.ap[r+1]; idx++ {
			add(s.ipos[s.ai[idx]])
		}
		add(int32(i)) // diagonal always present
		for len(pend) > 0 {
			k := heap.Pop(&pend).(int32)
			for idx := s.diag[k] + 1; idx < s.fp[k+1]; idx++ {
				add(s.fi[idx])
			}
		}
		sort.Slice(rowPat, func(a, b int) bool { return rowPat[a] < rowPat[b] })
		for j, c := range rowPat {
			if c == int32(i) {
				s.diag[i] = s.fp[i] + int32(j)
			}
		}
		s.fi = append(s.fi, rowPat...)
		s.fp[i+1] = int32(len(s.fi))
	}
}

// refactor runs the numeric up-looking factorization of the values in
// aval (laid out per the CSR pattern) into num. No allocation, no
// pattern decisions: one flat pass over the precomputed structure.
func (s *sparseSym) refactor(num *sparseNum, aval []float64) {
	x, fval := num.x, num.fval
	for i := 0; i < s.n; i++ {
		lo, hi := s.fp[i], s.fp[i+1]
		for idx := lo; idx < hi; idx++ {
			x[s.fi[idx]] = 0
		}
		r := s.perm[i]
		for idx := s.ap[r]; idx < s.ap[r+1]; idx++ {
			x[s.ipos[s.ai[idx]]] = aval[idx]
		}
		for idx := lo; idx < hi; idx++ {
			k := s.fi[idx]
			if k >= int32(i) {
				break
			}
			xk := x[k]
			if xk == 0 {
				continue
			}
			lik := xk / fval[s.diag[k]]
			x[k] = lik
			for j := s.diag[k] + 1; j < s.fp[k+1]; j++ {
				x[s.fi[j]] -= lik * fval[j]
			}
		}
		if x[int32(i)] == 0 {
			// Structurally isolated unknown: patch to identity and
			// pin its update to zero at solve time.
			x[int32(i)] = 1
			num.patched[i] = true
		} else {
			num.patched[i] = false
		}
		for idx := lo; idx < hi; idx++ {
			fval[idx] = x[s.fi[idx]]
		}
	}
}

// solve computes out = A⁻¹ b using the current factorization. b and
// out are in matrix index space (out may alias b); the permutation is
// applied internally. Patched pivots yield a zero component.
func (s *sparseSym) solve(num *sparseNum, b, out []float64) {
	y, fval := num.y, num.fval
	for i := 0; i < s.n; i++ {
		sum := b[s.perm[i]]
		for idx := s.fp[i]; idx < s.diag[i]; idx++ {
			sum -= fval[idx] * y[s.fi[idx]]
		}
		y[i] = sum
	}
	for i := s.n - 1; i >= 0; i-- {
		if num.patched[i] {
			y[i] = 0
			continue
		}
		sum := y[i]
		for idx := s.diag[i] + 1; idx < s.fp[i+1]; idx++ {
			sum -= fval[idx] * y[s.fi[idx]]
		}
		y[i] = sum / fval[s.diag[i]]
	}
	for i := 0; i < s.n; i++ {
		out[s.perm[i]] = y[i]
	}
}
