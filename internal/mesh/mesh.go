// Package mesh describes the global computational mesh of the PIC problem
// and its BLOCK distribution over processors. The mesh grid array is
// spatially homogeneous, so — as the paper assumes — it is distributed in
// BLOCK pieces along each dimension; the particle array is partitioned
// separately (see internal/partition) and aligned with the mesh through
// space-filling-curve indices.
//
// One Grid and one Dist serve both dimensionalities: a 2-D mesh is the
// one-plane 3-D mesh (Nz = 1), distributed over a Px×Py×1 processor grid.
// Boundary conditions are periodic in every dimension (the standard choice
// for plasma simulation), so the mesh has exactly Nx·Ny·Nz grid points and
// as many cells: cell (i, j, k) has the vertex grid points (i+a, j+b, k+c),
// a, b, c ∈ {0, 1} (c = 0 only in a plane), with indices taken modulo the
// extents.
package mesh

import (
	"fmt"

	"picpar/internal/sfc"
)

// Grid is the global mesh geometry: Nx×Ny×Nz grid points (and cells)
// covering a physical domain of size Lx×Ly×Lz with periodic boundaries.
// A grid with Nz = 1 is the 2-D grid.
type Grid struct {
	Nx, Ny, Nz int
	Lx, Ly, Lz float64
}

// NewGrid builds the 2-D grid of nx×ny unit-length cells: the one-plane
// grid with Lx = nx, Ly = ny and Nz = Lz = 1.
func NewGrid(nx, ny int) Grid { return NewGrid3(nx, ny, 1) }

// NewGrid3 builds a grid of nx×ny×nz unit-length cells.
func NewGrid3(nx, ny, nz int) Grid {
	return Grid{Nx: nx, Ny: ny, Nz: nz, Lx: float64(nx), Ly: float64(ny), Lz: float64(nz)}
}

// Validate reports whether the grid is usable.
func (g Grid) Validate() error {
	if g.Nx <= 0 || g.Ny <= 0 || g.Nz <= 0 {
		return fmt.Errorf("mesh: non-positive extents %dx%dx%d", g.Nx, g.Ny, g.Nz)
	}
	if g.Lx <= 0 || g.Ly <= 0 || g.Lz <= 0 {
		return fmt.Errorf("mesh: non-positive physical size %gx%gx%g", g.Lx, g.Ly, g.Lz)
	}
	return nil
}

// Dims returns 2 for a one-plane grid, else 3.
func (g Grid) Dims() int {
	if g.Nz == 1 {
		return 2
	}
	return 3
}

// Dx returns the cell size along x.
func (g Grid) Dx() float64 { return g.Lx / float64(g.Nx) }

// Dy returns the cell size along y.
func (g Grid) Dy() float64 { return g.Ly / float64(g.Ny) }

// Dz returns the cell size along z.
func (g Grid) Dz() float64 { return g.Lz / float64(g.Nz) }

// NumPoints returns the total number of grid points m.
func (g Grid) NumPoints() int { return g.Nx * g.Ny * g.Nz }

// PointIndex returns the row-major global id of grid point (i, j, k); the
// coordinates may be out of range and are wrapped periodically.
func (g Grid) PointIndex(i, j, k int) int {
	return (wrap(k, g.Nz)*g.Ny+wrap(j, g.Ny))*g.Nx + wrap(i, g.Nx)
}

// PointCoords inverts PointIndex for in-range ids.
func (g Grid) PointCoords(id int) (i, j, k int) {
	return id % g.Nx, id / g.Nx % g.Ny, id / (g.Nx * g.Ny)
}

// WrapPosition maps an arbitrary physical position into the periodic domain.
func (g Grid) WrapPosition(x, y, z float64) (float64, float64, float64) {
	return Wrap(x, g.Lx), Wrap(y, g.Ly), Wrap(z, g.Lz)
}

// CellOf returns the cell (cx, cy, cz) containing physical position
// (x, y, z), after periodic wrapping; a plane ignores z (cz = 0). Along
// each axis the cell is ⌊x/d⌋ for the cell size d, so the in-cell
// fraction x/d − c lies in [0, 1) — except where x/d rounds up to N one
// ulp below L, which the clamp puts in the last cell with fraction 1.
func (g Grid) CellOf(x, y, z float64) (cx, cy, cz int) {
	cx = min(int(Wrap(x, g.Lx)/g.Dx()), g.Nx-1)
	cy = min(int(Wrap(y, g.Ly)/g.Dy()), g.Ny-1)
	if g.Nz > 1 {
		cz = min(int(Wrap(z, g.Lz)/g.Dz()), g.Nz-1)
	}
	return cx, cy, cz
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

// Wrap maps coordinate x into the periodic interval [0, l): WrapPosition
// along one axis, for loops that hoist the domain lengths (a Grid is too
// large to stay in registers, so an inlined method call copies it).
func Wrap(x, l float64) float64 {
	for x < 0 {
		x += l
	}
	for x >= l {
		x -= l
	}
	return x
}

// BlockRange returns the half-open range [lo, hi) of the k-th of p BLOCK
// pieces of n items: the standard balanced block decomposition.
func BlockRange(n, p, k int) (lo, hi int) {
	return k * n / p, (k + 1) * n / p
}

// BlockOwner returns which of p BLOCK pieces of n items owns item i.
// Inverse of BlockRange.
func BlockOwner(n, p, i int) int {
	k := i * p / n // close to the owner; correct in both directions
	for (k+1)*n/p <= i {
		k++
	}
	for k > 0 && k*n/p > i {
		k--
	}
	return k
}

// BlockOwners tabulates BlockOwner(n, p, i) for every item i.
func BlockOwners(n, p int) []int32 {
	owner := make([]int32, n)
	for k := 0; k < p; k++ {
		lo, hi := BlockRange(n, p, k)
		for i := lo; i < hi; i++ {
			owner[i] = int32(k)
		}
	}
	return owner
}

// Dist is a BLOCK distribution of the grid over p ranks arranged as a
// Px×Py×Pz processor grid (Pz = 1 for a plane). The assignment of ranks to
// processor-grid tiles is given by a numbering: row-major by default, or
// one aligned with a space-filling curve (NewDistOrdered, the paper's
// Figure 10, where "Hilbert indexing is applied on 16 processor
// addresses"), which puts mesh block r on the r-th segment of the
// cell-index space and hence under particle chunk r.
type Dist struct {
	G          Grid
	P          int
	Px, Py, Pz int
	// Cells is the cell indexer the tile numbering was aligned against
	// (nil unless NewDistOrdered built one): the curve whose keys order
	// the particles, so a geometry can reuse it rather than build it again.
	Cells sfc.Indexer

	// tileRank[tile] is the rank owning a tile, tiles numbered x fastest;
	// rankTile is the inverse. Nil means the identity numbering.
	tileRank []int
	rankTile []int

	// owner[a][i] is the processor-grid coordinate along axis a whose
	// BLOCK piece holds grid coordinate i: BlockOwner tabulated once,
	// because the ghost registry asks the owner of every ghost point every
	// iteration.
	owner [3][]int32
}

// newDist builds the row-major numbered distribution over processor grid c.
func newDist(g Grid, c [3]int) *Dist {
	return &Dist{G: g, P: c[0] * c[1] * c[2], Px: c[0], Py: c[1], Pz: c[2],
		owner: [3][]int32{BlockOwners(g.Nx, c[0]), BlockOwners(g.Ny, c[1]), BlockOwners(g.Nz, c[2])}}
}

// NewDist builds the unnumbered distribution over the processor grid
// Px×Py×Pz = p whose blocks are closest to square in a plane, or to a cube
// in 3-D: the shape that minimises the field-solve halo surface.
func NewDist(g Grid, p int) (*Dist, error) {
	grids, _, err := factorisations(g, p)
	if err != nil {
		return nil, err
	}
	return newDist(g, grids[0]), nil
}

// NewDist1D builds a distribution blocked along y only (Px = Pz = 1), the
// "distributed along one dimension" alternative mentioned in the paper.
func NewDist1D(g Grid, p int) (*Dist, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 || p > g.Ny {
		return nil, fmt.Errorf("mesh: cannot 1-D distribute %d rows over %d ranks", g.Ny, p)
	}
	return newDist(g, [3]int{1, p, 1}), nil
}

// Renumber installs the tile numbering of the given ordering over the
// processor grid: rank r owns the r-th tile along the ordering. The
// ordering function must be a bijection from tile coordinates onto
// 0..P−1 (e.g. an sfc indexer's Index method for the processor grid).
func (d *Dist) Renumber(order func(tx, ty, tz int) int) error {
	tileRank := make([]int, 2*d.P)
	tileRank, rankTile := tileRank[:d.P], tileRank[d.P:]
	for i := range rankTile {
		rankTile[i] = -1
	}
	for t := range tileRank {
		tx, ty, tz := d.tileCoords(t)
		r := order(tx, ty, tz)
		if r < 0 || r >= d.P || rankTile[r] >= 0 {
			return fmt.Errorf("mesh: tile ordering is not a bijection at (%d,%d,%d) -> %d", tx, ty, tz, r)
		}
		tileRank[t], rankTile[r] = r, t
	}
	d.tileRank, d.rankTile = tileRank, rankTile
	return nil
}

// tileCoords returns the processor-grid coordinates of tile t.
func (d *Dist) tileCoords(t int) (px, py, pz int) {
	return t % d.Px, t / d.Px % d.Py, t / (d.Px * d.Py)
}

// RankCoords returns rank r's processor-grid coordinates.
func (d *Dist) RankCoords(r int) (px, py, pz int) {
	if d.rankTile != nil {
		r = d.rankTile[r]
	}
	return d.tileCoords(r)
}

// RankAt returns the rank at processor-grid coordinates (px, py, pz),
// wrapped periodically (used for halo neighbours).
func (d *Dist) RankAt(px, py, pz int) int {
	t := (wrap(pz, d.Pz)*d.Py+wrap(py, d.Py))*d.Px + wrap(px, d.Px)
	if d.tileRank != nil {
		return d.tileRank[t]
	}
	return t
}

// Bounds returns rank r's owned grid-point region: the half-open range
// [lo[a], hi[a]) along each axis a.
func (d *Dist) Bounds(r int) (lo, hi [3]int) {
	px, py, pz := d.RankCoords(r)
	lo[0], hi[0] = BlockRange(d.G.Nx, d.Px, px)
	lo[1], hi[1] = BlockRange(d.G.Ny, d.Py, py)
	lo[2], hi[2] = BlockRange(d.G.Nz, d.Pz, pz)
	return lo, hi
}

// OwnerOfPoint returns the rank owning grid point (i, j, k) (wrapped).
func (d *Dist) OwnerOfPoint(i, j, k int) int {
	o := &d.owner
	return d.RankAt(int(o[0][wrap(i, d.G.Nx)]), int(o[1][wrap(j, d.G.Ny)]), int(o[2][wrap(k, d.G.Nz)]))
}

// Neighbours returns the ranks adjacent to r on the periodic processor
// grid: the low and high face neighbour along each axis (−x, +x), (−y, +y),
// (−z, +z). Entries equal r where the processor grid is 1 wide.
func (d *Dist) Neighbours(r int) (nbr [3][2]int) {
	px, py, pz := d.RankCoords(r)
	return [3][2]int{
		{d.RankAt(px-1, py, pz), d.RankAt(px+1, py, pz)},
		{d.RankAt(px, py-1, pz), d.RankAt(px, py+1, pz)},
		{d.RankAt(px, py, pz-1), d.RankAt(px, py, pz+1)},
	}
}

func (d *Dist) String() string {
	return fmt.Sprintf("dist{%dx%dx%d points over %d=%dx%dx%d ranks}",
		d.G.Nx, d.G.Ny, d.G.Nz, d.P, d.Px, d.Py, d.Pz)
}
