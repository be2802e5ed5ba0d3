// Package eval provides the clustering-quality measures the paper reports:
// per-family precision and recall (§6.1), the percentage of correctly
// labeled sequences (Table 2). Clusters are matched one-to-one to ground-truth
// families with the Hungarian algorithm so that "correctly labeled" is
// well defined even when cluster numbering is arbitrary.
package eval

import (
	"fmt"
	"math"
)

// Hungarian solves the assignment problem: given an n×m cost matrix with
// n ≤ m, it returns, for each row, the column assigned to it so that the
// total cost is minimal. It runs in O(n²·m) time (the potentials-based
// algorithm).
func Hungarian(cost [][]float64) ([]int, error) {
	n := len(cost)
	if n == 0 {
		return nil, nil
	}
	m := len(cost[0])
	if m < n {
		return nil, fmt.Errorf("eval: Hungarian needs cols ≥ rows, got %d×%d", n, m)
	}
	for i := range cost {
		if len(cost[i]) != m {
			return nil, fmt.Errorf("eval: ragged cost matrix at row %d", i)
		}
		for j := range cost[i] {
			if math.IsNaN(cost[i][j]) {
				return nil, fmt.Errorf("eval: NaN cost at (%d,%d)", i, j)
			}
		}
	}

	const inf = math.MaxFloat64
	// 1-indexed potentials; p[j] is the row assigned to column j.
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)
	way := make([]int, m+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	assign := make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	return assign, nil
}

// MaxAssignment maximizes total weight instead of minimizing cost, padding
// a wide-or-tall weight matrix to the shape Hungarian requires. It returns
// rowToCol with −1 for unassigned rows (possible when rows > cols).
func MaxAssignment(weight [][]float64) ([]int, error) {
	n := len(weight)
	if n == 0 {
		return nil, nil
	}
	m := len(weight[0])
	max := 0.0
	for i := range weight {
		if len(weight[i]) != m {
			return nil, fmt.Errorf("eval: ragged weight matrix at row %d", i)
		}
		for _, w := range weight[i] {
			if w > max {
				max = w
			}
		}
	}
	// Pad to square so every row/col can be left unmatched at zero weight.
	dim := n
	if m > dim {
		dim = m
	}
	cost := make([][]float64, dim)
	for i := range cost {
		cost[i] = make([]float64, dim)
		for j := range cost[i] {
			if i < n && j < m {
				cost[i][j] = max - weight[i][j]
			} else {
				cost[i][j] = max // dummy: equivalent to weight 0
			}
		}
	}
	assign, err := Hungarian(cost)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		if assign[i] < m {
			out[i] = assign[i]
		} else {
			out[i] = -1
		}
	}
	return out, nil
}
