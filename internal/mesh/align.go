package mesh

import (
	"fmt"
	"slices"

	"picpar/internal/sfc"
)

// aligner counts how many cells of each candidate tile fall in each key
// P-th and numbers the tiles from those counts. The cut planes of all
// candidate grids split the mesh into atoms, so every candidate tile is a
// union of atoms; one walk of the cell indexer counts atom × P-th cells,
// and each candidate's tile × P-th counts are sums of atom rows.
type aligner struct {
	g     Grid
	p     int
	atom  [3][]int32 // per axis: the atom coordinate of every cell coordinate
	na    [3]int     // atoms per axis
	count []int32    // atom × P-th cells
	row   []int32    // one tile's cells per P-th
	free  []bool     // P-ths not yet numbered
	pairs []overlap

	curve        []int // the processor-grid curve's rank of every tile
	rank         []int // the greedy numbering of the last grid numbered
	curveAligned int   // cells the curve numbering aligns
}

// overlap is one nonzero tile × P-th count.
type overlap struct {
	tile, pth, cells int32
	onCurve          bool // pth is the curve's rank of tile
}

// newAligner counts the atom × P-th cells of the atoms the grids cut g
// into. Cell key k falls in P-th ⌊k·p/n⌋ of the n cells.
func newAligner(g Grid, p int, cells sfc.Indexer3, grids [][3]int) aligner {
	ext := [3]int{g.Nx, g.Ny, g.Nz}
	a := aligner{g: g, p: p, free: make([]bool, p)}
	axes := make([]int32, g.Nx+g.Ny+g.Nz)
	for ax, n := range ext {
		atom := axes[:n]
		axes = axes[n:]
		for _, c := range grids {
			for k := 1; k < c[ax]; k++ {
				atom[k*n/c[ax]] = 1
			}
		}
		for i := 1; i < n; i++ {
			atom[i] += atom[i-1]
		}
		a.atom[ax], a.na[ax] = atom, int(atom[n-1])+1
	}
	a.count = make([]int32, a.na[0]*a.na[1]*a.na[2]*p+p)
	a.count, a.row = a.count[:len(a.count)-p], a.count[len(a.count)-p:]

	n := g.Nx * g.Ny * g.Nz
	scale := float64(p) / float64(n)
	for z := 0; z < g.Nz; z++ {
		az := int(a.atom[2][z]) * a.na[1]
		for y := 0; y < g.Ny; y++ {
			ay := (az + int(a.atom[1][y])) * a.na[0]
			for x, ax := range a.atom[0] {
				k := cells.Index(x, y, z)
				q := int(float64(k) * scale) // exact after the correction below
				if (q+1)*n <= k*p {
					q++
				} else if q*n > k*p {
					q--
				}
				a.count[(ay+int(ax))*p+q]++
			}
		}
	}
	nonzero := 0
	for _, c := range a.count {
		if c != 0 {
			nonzero++
		}
	}
	// A tile's nonzero P-ths are at most its atoms' nonzero entries.
	a.pairs = make([]overlap, 0, nonzero)
	return a
}

// number numbers the tiles of processor grid c greedily by descending
// overlap with the key P-ths and returns how many cells that numbering
// aligns. It leaves the numbering in a.rank, the curve numbering of c in
// a.curve and the cells that one aligns in a.curveAligned.
func (a *aligner) number(c [3]int, scheme string) (int, error) {
	px, py, pz := c[0], c[1], c[2]
	tiles, err := sfc.New3(scheme, px, py, pz)
	if err != nil {
		return 0, err
	}
	for i := range a.free {
		a.free[i] = true
	}
	for tz := 0; tz < pz; tz++ {
		for ty := 0; ty < py; ty++ {
			for tx := 0; tx < px; tx++ {
				r := tiles.Index(tx, ty, tz)
				if r < 0 || r >= a.p || !a.free[r] {
					return 0, fmt.Errorf("mesh: ordering not a bijection at (%d,%d,%d)", tx, ty, tz)
				}
				a.free[r] = false
				a.curve[(tz*py+ty)*px+tx] = r
			}
		}
	}

	g, p := a.g, a.p
	a.pairs, a.curveAligned = a.pairs[:0], 0
	for t := 0; t < p; t++ {
		i0, i1 := BlockRange(g.Nx, px, t%px)
		j0, j1 := BlockRange(g.Ny, py, t/px%py)
		k0, k1 := BlockRange(g.Nz, pz, t/(px*py))
		for az := a.atom[2][k0]; az <= a.atom[2][k1-1]; az++ {
			for ay := a.atom[1][j0]; ay <= a.atom[1][j1-1]; ay++ {
				for ax := a.atom[0][i0]; ax <= a.atom[0][i1-1]; ax++ {
					at := (int(az)*a.na[1]+int(ay))*a.na[0] + int(ax)
					for q, n := range a.count[at*p : (at+1)*p] {
						a.row[q] += n
					}
				}
			}
		}
		a.curveAligned += int(a.row[a.curve[t]])
		for q, n := range a.row {
			if n != 0 {
				a.pairs = append(a.pairs, overlap{tile: int32(t), pth: int32(q), cells: n, onCurve: q == a.curve[t]})
				a.row[q] = 0
			}
		}
	}
	slices.SortFunc(a.pairs, func(x, y overlap) int {
		switch {
		case x.cells != y.cells:
			return int(y.cells - x.cells)
		case x.onCurve != y.onCurve:
			if x.onCurve {
				return -1
			}
			return 1
		case x.tile != y.tile:
			return int(x.tile - y.tile)
		}
		return int(x.pth - y.pth)
	})

	for i := range a.free {
		a.free[i] = true
		a.rank[i] = -1
	}
	aligned := 0
	for _, o := range a.pairs {
		if a.rank[o.tile] < 0 && a.free[o.pth] {
			a.rank[o.tile], a.free[o.pth] = int(o.pth), false
			aligned += int(o.cells)
		}
	}
	// The tiles left overlap no free P-th: the curve's rank if it is free,
	// else the lowest free one.
	for t, r := range a.rank {
		if q := a.curve[t]; r < 0 && a.free[q] {
			a.rank[t], a.free[q] = q, false
		}
	}
	next := 0
	for t, r := range a.rank {
		if r < 0 {
			for !a.free[next] {
				next++
			}
			a.rank[t], a.free[next] = next, false
		}
	}
	return aligned, nil
}
