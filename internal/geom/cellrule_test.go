package geom

import (
	"fmt"
	"math"
	"testing"

	"picpar/internal/mesh"
	"picpar/internal/sfc"
)

// nearEdges returns every k·d ± 4 ulps, k = 0..n, that lies in [0, l).
func nearEdges(n int, l, d float64) []float64 {
	var xs []float64
	for k := 0; k <= n; k++ {
		x := float64(k) * d
		for u := 0; u < 4; u++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for u := -4; u <= 4; u++ {
			if x >= 0 && x < l {
				xs = append(xs, x)
			}
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	return xs
}

// TestCellRule: along every axis of 2-D and 3-D grids of 6, 7, 12, 100,
// 16 and 32 cells, unit and non-unit, CellOf and the range kernels' axis
// put every position within 4 ulps of a cell boundary in a cell c whose
// unclamped fraction x/d − c lies in [0, 1) — the one cell rule
// c = ⌊x/d⌋. The only exception is a position one ulp below L whose
// quotient rounds up to N: CellOf clamps it into the last cell, and the
// axis hands it to CellOf (not exact).
func TestCellRule(t *testing.T) {
	for _, n := range []int{6, 7, 12, 100, 16, 32} {
		for _, l := range []float64{float64(n), 0.37 * float64(n), 13} {
			for _, g := range []mesh.Grid{
				{Nx: n, Ny: n, Nz: 1, Lx: l, Ly: l, Lz: 1},
				{Nx: n, Ny: 2, Nz: n, Lx: l, Ly: 2, Lz: l},
			} {
				d, err := mesh.NewDist(g, 1)
				if err != nil {
					t.Fatal(err)
				}
				ix, err := sfc.New3(sfc.SchemeRowMajor, g.Nx, g.Ny, g.Nz)
				if err != nil {
					t.Fatal(err)
				}
				ge := New3(g, d, ix)
				b := ge.block(ge.NewFields(0, nil))
				for a, ax := range [3]*axis{&b.x, &b.y, &b.z} {
					checkCellRule(t, fmt.Sprintf("%dx%dx%d/L=%g/axis %d", g.Nx, g.Ny, g.Nz, l, a), g, a, ax)
				}
			}
		}
	}
}

// checkCellRule is TestCellRule on axis a of g, whose kernel axis is ax.
func checkCellRule(t *testing.T, name string, g mesh.Grid, a int, ax *axis) {
	t.Helper()
	for _, x := range nearEdges(ax.n, ax.l, ax.d) {
		var pos [3]float64
		pos[a] = x
		cx, cy, cz := g.CellOf(pos[0], pos[1], pos[2])
		c := [3]int{cx, cy, cz}[a]
		q := x / ax.d
		below := q < float64(ax.n)
		if f := q - float64(c); below && !(f >= 0 && f < 1) {
			t.Fatalf("%s: CellOf puts %v (%#x) in cell %d with fraction %v", name, x, math.Float64bits(x), c, f)
		} else if !below && c != ax.n-1 {
			t.Fatalf("%s: CellOf puts %v, quotient %v, in cell %d, want %d", name, x, q, c, ax.n-1)
		}
		li, f, _ := ax.cell(x)
		if !ax.exact(x, li) {
			if below {
				t.Fatalf("%s: the axis finds %v inexact below N (cell %d)", name, x, li+ax.i0)
			}
			continue
		}
		if li+ax.i0 != c || !(f >= 0 && f < 1) {
			t.Fatalf("%s: the axis puts %v in cell %d with fraction %v, CellOf in %d", name, x, li+ax.i0, f, c)
		}
	}
}
