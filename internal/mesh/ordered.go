package mesh

import (
	"fmt"

	"picpar/internal/sfc"
)

// NewDistOrdered builds the BLOCK distribution whose tiles line up with
// the equal P-ths of the named cell curve — the paper's alignment device:
// particles are keyed by that curve and dealt in equal-count P-ths, so
// rank r should own the tile the r-th P-th of the keys covers.
//
// A plane takes NewDist's tiling and numbers its ranks along the same
// curve over the processor grid, which puts every cell of the benchmark's
// meshes on its own rank's tile. In 3-D that second curve can miss badly:
// at 32³ over 4 ranks, each Hilbert quarter is a column the 1×2×2 tiles
// cut across, and only a quarter of the cells lie on their own rank's
// tile. So a 3-D NewDistOrdered counts, for every processor grid of the
// most cube-like block shape, how many cells of each tile fall in each key
// P-th, numbers the tiles greedily by descending overlap (ties toward the
// processor-grid curve's numbering, then by tile and P-th index), and
// keeps the grid whose numbering aligns the most cells. The curve
// numbering of the first grid stands unless some numbering aligns
// strictly more, so where it is already fully aligned (Hilbert cubes over
// 8 or 64 ranks) the result is the curve-numbered Dist, and Cells is the
// cell indexer it built.
func NewDistOrdered(g Grid, p int, scheme string) (*Dist, error) {
	grids, n, err := factorisations(g, p)
	if err != nil {
		return nil, err
	}
	if g.Dims() == 2 {
		d := newDist(g, grids[0])
		tiles, err := sfc.New(scheme, d.Px, d.Py)
		if err != nil {
			return nil, err
		}
		if err := d.Renumber(tiles.Index); err != nil {
			return nil, err
		}
		return d, nil
	}
	cells, err := sfc.New3(scheme, g.Nx, g.Ny, g.Nz)
	if err != nil {
		return nil, err
	}
	// tileRank and rankTile, then the aligner's two numberings.
	ints := make([]int, 4*p)
	numbering := ints[:2*p]
	a := newAligner(g, p, cells, grids[:n])
	a.curve, a.rank = ints[2*p:3*p], ints[3*p:]
	best, bestAligned := 0, -1
	for c := 0; c < n; c++ {
		aligned, err := a.number(grids[c], scheme)
		if err != nil {
			return nil, err
		}
		if c == 0 {
			// The first grid's curve numbering is the one to beat.
			bestAligned = a.curveAligned
			copy(numbering, a.curve)
		}
		if aligned > bestAligned {
			best, bestAligned = c, aligned
			copy(numbering, a.rank)
		}
	}
	d := newDist(g, grids[best])
	d.Cells = cells
	d.tileRank, d.rankTile = numbering[:p], numbering[p:]
	for t, r := range d.tileRank {
		d.rankTile[r] = t
	}
	return d, nil
}

// maxShapes bounds the processor grids that share one block shape: the
// orderings of three extents.
const maxShapes = 6

// factorisations returns the processor grids whose blocks have the best
// shape and n, how many there are. In a plane the shape score is the
// physical aspect bw/bh + bh/bw, in 3-D the surface-to-volume proxy; the
// grids of the best score are the orderings of one block shape, so they
// share halo volume and field-solve traffic. The first is the one the
// score alone picks, the earliest in (px, py, pz) order.
func factorisations(g Grid, p int) (grids [maxShapes][3]int, n int, err error) {
	if err := g.Validate(); err != nil {
		return grids, 0, err
	}
	if p <= 0 {
		return grids, 0, fmt.Errorf("mesh: non-positive rank count %d", p)
	}
	const worstScore = 1e300
	bestScore := worstScore
	eachGrid(g, p, func(c [3]int) {
		if score := g.shapeScore(c); score < bestScore {
			bestScore = score
			grids[0] = c
		}
	})
	if bestScore == worstScore {
		return grids, 0, fmt.Errorf("mesh: cannot block-distribute %dx%dx%d over %d ranks", g.Nx, g.Ny, g.Nz, p)
	}
	want := g.blockShape(grids[0])
	n = 1
	eachGrid(g, p, func(c [3]int) {
		if c != grids[0] && g.blockShape(c) == want {
			grids[n] = c
			n++
		}
	})
	return grids, n, nil
}

// shapeScore is factorisations' score of processor grid c: smaller is
// squarer in a plane, more cube-like in 3-D.
func (g *Grid) shapeScore(c [3]int) float64 {
	bx, by, bz := g.blockExtents(c)
	if g.Dims() == 2 {
		return bx/by + by/bx // minimised at 2 when square
	}
	return (float64(bx*by) + float64(by*bz) + float64(bx*bz)) / (bx * by * bz)
}

// eachGrid calls fn with every px×py×pz = p grid that fits g, in
// lexicographic order.
func eachGrid(g Grid, p int, fn func(c [3]int)) {
	for px := 1; px <= p; px++ {
		if p%px != 0 {
			continue
		}
		rem := p / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 {
				continue
			}
			if pz := rem / py; px <= g.Nx && py <= g.Ny && pz <= g.Nz {
				fn([3]int{px, py, pz})
			}
		}
	}
}

// blockExtents returns the mean block extents of processor grid c.
func (g *Grid) blockExtents(c [3]int) (bx, by, bz float64) {
	return float64(g.Nx) / float64(c[0]), float64(g.Ny) / float64(c[1]), float64(g.Nz) / float64(c[2])
}

// blockShape returns the block extents of processor grid c, sorted.
func (g *Grid) blockShape(c [3]int) [3]float64 {
	a, b, e := g.blockExtents(c)
	if a > b {
		a, b = b, a
	}
	if b > e {
		b, e = e, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]float64{a, b, e}
}
