// Package mesh3 is the three-dimensional counterpart of internal/mesh:
// global grid geometry and BLOCK distribution over a Px×Py×Pz processor
// grid. NewDistOrdered picks the processor grid, among the most cube-like
// ones, and numbers its tiles from the cell curve that keys the
// particles, so each rank's equal-count P-th of that curve covers its own
// tile. It backs the 3-D simulation and the partitioning analysis that
// demonstrates the paper's "generalizes to n dimensions" claim.
package mesh3

import (
	"fmt"

	"picpar/internal/mesh"
	"picpar/internal/sfc"
)

// Grid is a 3-D mesh of Nx×Ny×Nz grid points (and cells) with periodic
// boundaries and unit cells.
type Grid struct {
	Nx, Ny, Nz int
	Lx, Ly, Lz float64
}

// NewGrid builds a grid with unit cells.
func NewGrid(nx, ny, nz int) Grid {
	return Grid{Nx: nx, Ny: ny, Nz: nz, Lx: float64(nx), Ly: float64(ny), Lz: float64(nz)}
}

// Validate reports whether the grid is usable.
func (g Grid) Validate() error {
	if g.Nx <= 0 || g.Ny <= 0 || g.Nz <= 0 {
		return fmt.Errorf("mesh3: non-positive extents %dx%dx%d", g.Nx, g.Ny, g.Nz)
	}
	return nil
}

// NumPoints returns the total grid points.
func (g Grid) NumPoints() int { return g.Nx * g.Ny * g.Nz }

// Dx returns the cell size along x.
func (g Grid) Dx() float64 { return g.Lx / float64(g.Nx) }

// Dy returns the cell size along y.
func (g Grid) Dy() float64 { return g.Ly / float64(g.Ny) }

// Dz returns the cell size along z.
func (g Grid) Dz() float64 { return g.Lz / float64(g.Nz) }

// WrapPosition wraps a position into the periodic domain.
func (g Grid) WrapPosition(x, y, z float64) (float64, float64, float64) {
	return wrapF(x, g.Lx), wrapF(y, g.Ly), wrapF(z, g.Lz)
}

func wrapF(x, l float64) float64 {
	for x < 0 {
		x += l
	}
	for x >= l {
		x -= l
	}
	return x
}

// PointIndex returns the row-major global id of grid point (i, j, k),
// wrapped periodically.
func (g Grid) PointIndex(i, j, k int) int {
	i = wrap(i, g.Nx)
	j = wrap(j, g.Ny)
	k = wrap(k, g.Nz)
	return (k*g.Ny+j)*g.Nx + i
}

// PointCoords inverts PointIndex for in-range ids.
func (g Grid) PointCoords(id int) (i, j, k int) {
	i = id % g.Nx
	j = (id / g.Nx) % g.Ny
	k = id / (g.Nx * g.Ny)
	return i, j, k
}

// CellOf returns the cell containing position (x, y, z), periodically
// wrapped.
func (g Grid) CellOf(x, y, z float64) (cx, cy, cz int) {
	cx = clampWrap(x, g.Lx, g.Nx)
	cy = clampWrap(y, g.Ly, g.Ny)
	cz = clampWrap(z, g.Lz, g.Nz)
	return cx, cy, cz
}

func clampWrap(x, l float64, n int) int {
	for x < 0 {
		x += l
	}
	for x >= l {
		x -= l
	}
	c := int(x / l * float64(n))
	if c >= n {
		c = n - 1
	}
	return c
}

func wrap(i, n int) int {
	if uint(i) < uint(n) {
		return i
	}
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Dist is a BLOCK distribution over a Px×Py×Pz processor grid, with an
// optional tile numbering (identity when nil).
type Dist struct {
	G          Grid
	P          int
	Px, Py, Pz int
	// Cells is the cell indexer the tile numbering was aligned against
	// (nil for an unnumbered Dist): the curve whose keys order the
	// particles, so a geometry can reuse it rather than build it again.
	Cells    sfc.Indexer3
	tileRank []int
	rankTile []int

	// Per-axis BLOCK owner tables; see mesh.Dist.
	ownerX, ownerY, ownerZ []int32
}

// maxShapes bounds the processor grids that share one block shape: the
// orderings of three extents.
const maxShapes = 6

// factorisations returns the processor grids whose blocks are the most
// cube-like (the smallest surface-to-volume proxy) and n, how many there
// are. They are the orderings of one block shape, so they share halo
// volume and field-solve traffic. The first is the one the proxy alone
// picks, the earliest in (px, py, pz) order.
func factorisations(g Grid, p int) (grids [maxShapes][3]int, n int, err error) {
	if err := g.Validate(); err != nil {
		return grids, 0, err
	}
	if p <= 0 {
		return grids, 0, fmt.Errorf("mesh3: non-positive rank count %d", p)
	}
	bestScore := 1e300
	eachGrid(g, p, func(c [3]int) {
		bx, by, bz := g.blockExtents(c)
		// Surface-to-volume proxy: smaller is more cube-like.
		if score := (bx*by + by*bz + bx*bz) / (bx * by * bz); score < bestScore {
			bestScore = score
			grids[0] = c
		}
	})
	if bestScore == 1e300 {
		return grids, 0, fmt.Errorf("mesh3: cannot block-distribute %dx%dx%d over %d ranks", g.Nx, g.Ny, g.Nz, p)
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
func (g Grid) blockExtents(c [3]int) (bx, by, bz float64) {
	return float64(g.Nx) / float64(c[0]), float64(g.Ny) / float64(c[1]), float64(g.Nz) / float64(c[2])
}

// blockShape returns the block extents of processor grid c, sorted.
func (g Grid) blockShape(c [3]int) [3]float64 {
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

// newDist builds the unnumbered distribution over the most cube-like
// processor grid.
func newDist(g Grid, p int) (*Dist, error) {
	grids, _, err := factorisations(g, p)
	if err != nil {
		return nil, err
	}
	return newDistOn(g, p, grids[0]), nil
}

func newDistOn(g Grid, p int, c [3]int) *Dist {
	return &Dist{G: g, P: p, Px: c[0], Py: c[1], Pz: c[2],
		ownerX: mesh.BlockOwners(g.Nx, c[0]),
		ownerY: mesh.BlockOwners(g.Ny, c[1]),
		ownerZ: mesh.BlockOwners(g.Nz, c[2])}
}

// NewDistOrdered builds the distribution whose tiles line up with the
// equal P-ths of the named cell curve — the paper's alignment device:
// particles are keyed by that curve and dealt in equal-count P-ths, so
// rank r should own the tile the r-th P-th of the keys covers.
//
// Numbering the processor grid along a second curve of the same scheme
// (the 2-D mesh.NewDistOrdered) only approximates that. In 3-D it can
// miss badly: at 32³ over 4 ranks, each Hilbert quarter is a column the
// 1×2×2 tiles cut across, and only a quarter of the cells lie on their
// own rank's tile. So NewDistOrdered counts, for every processor grid of
// the most cube-like block shape, how many cells of each tile fall in
// each key P-th, numbers the tiles greedily by descending overlap (ties
// toward the processor-grid curve's numbering, then by tile and P-th
// index), and keeps the grid whose numbering aligns the most cells. The
// curve numbering of the first grid stands unless some numbering aligns
// strictly more, so where it is already fully aligned (Hilbert cubes over
// 8 or 64 ranks) the result is the curve-numbered Dist.
func NewDistOrdered(g Grid, p int, scheme string) (*Dist, error) {
	grids, n, err := factorisations(g, p)
	if err != nil {
		return nil, err
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
	d := newDistOn(g, p, grids[best])
	d.Cells = cells
	d.tileRank, d.rankTile = numbering[:p], numbering[p:]
	for t, r := range d.tileRank {
		d.rankTile[r] = t
	}
	return d, nil
}

// RankCoords returns rank r's processor-grid coordinates.
func (d *Dist) RankCoords(r int) (px, py, pz int) {
	t := r
	if d.rankTile != nil {
		t = d.rankTile[r]
	}
	px = t % d.Px
	py = (t / d.Px) % d.Py
	pz = t / (d.Px * d.Py)
	return px, py, pz
}

// Bounds returns rank r's owned half-open ranges.
func (d *Dist) Bounds(r int) (i0, i1, j0, j1, k0, k1 int) {
	px, py, pz := d.RankCoords(r)
	i0, i1 = mesh.BlockRange(d.G.Nx, d.Px, px)
	j0, j1 = mesh.BlockRange(d.G.Ny, d.Py, py)
	k0, k1 = mesh.BlockRange(d.G.Nz, d.Pz, pz)
	return
}

// RankAt returns the rank at processor-grid coordinates (px, py, pz),
// wrapped periodically.
func (d *Dist) RankAt(px, py, pz int) int {
	px = wrap(px, d.Px)
	py = wrap(py, d.Py)
	pz = wrap(pz, d.Pz)
	tile := (pz*d.Py+py)*d.Px + px
	if d.tileRank != nil {
		return d.tileRank[tile]
	}
	return tile
}

// Neighbours returns rank r's six face neighbours on the periodic
// processor grid.
func (d *Dist) Neighbours(r int) (left, right, down, up, back, front int) {
	px, py, pz := d.RankCoords(r)
	return d.RankAt(px-1, py, pz), d.RankAt(px+1, py, pz),
		d.RankAt(px, py-1, pz), d.RankAt(px, py+1, pz),
		d.RankAt(px, py, pz-1), d.RankAt(px, py, pz+1)
}

// OwnerOfPoint returns the rank owning grid point (i, j, k), wrapped.
func (d *Dist) OwnerOfPoint(i, j, k int) int {
	i = wrap(i, d.G.Nx)
	j = wrap(j, d.G.Ny)
	k = wrap(k, d.G.Nz)
	return d.RankAt(int(d.ownerX[i]), int(d.ownerY[j]), int(d.ownerZ[k]))
}
