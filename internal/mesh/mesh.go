// Package mesh describes the global computational mesh of the PIC problem
// and its BLOCK distribution over processors. The mesh grid array is
// spatially homogeneous, so — as the paper assumes — it is distributed along
// one or two dimensions using BLOCK distribution; the particle array is
// partitioned separately (see internal/partition) and aligned with the mesh
// through space-filling-curve indices.
//
// Boundary conditions are periodic in both dimensions (the standard choice
// for plasma simulation), so the mesh has exactly Nx·Ny grid points and
// Nx·Ny cells: cell (i, j) has vertex grid points (i, j), (i+1, j),
// (i, j+1), (i+1, j+1) with indices taken modulo the extents.
package mesh

import "fmt"

// Grid is the global mesh geometry: Nx×Ny grid points (and cells) covering
// a physical domain of size Lx×Ly with periodic boundaries.
type Grid struct {
	Nx, Ny int
	Lx, Ly float64
}

// NewGrid builds a grid with unit-length cells (Lx = Nx, Ly = Ny), the
// convention used throughout the experiments.
func NewGrid(nx, ny int) Grid {
	return Grid{Nx: nx, Ny: ny, Lx: float64(nx), Ly: float64(ny)}
}

// Validate reports whether the grid is usable.
func (g Grid) Validate() error {
	if g.Nx <= 0 || g.Ny <= 0 {
		return fmt.Errorf("mesh: non-positive extents %dx%d", g.Nx, g.Ny)
	}
	if g.Lx <= 0 || g.Ly <= 0 {
		return fmt.Errorf("mesh: non-positive physical size %gx%g", g.Lx, g.Ly)
	}
	return nil
}

// Dx returns the cell width.
func (g Grid) Dx() float64 { return g.Lx / float64(g.Nx) }

// Dy returns the cell height.
func (g Grid) Dy() float64 { return g.Ly / float64(g.Ny) }

// NumPoints returns the total number of grid points m.
func (g Grid) NumPoints() int { return g.Nx * g.Ny }

// PointIndex returns the row-major global id of grid point (i, j); i and j
// may be out of range and are wrapped periodically.
func (g Grid) PointIndex(i, j int) int {
	i = wrap(i, g.Nx)
	j = wrap(j, g.Ny)
	return j*g.Nx + i
}

// PointCoords inverts PointIndex for in-range ids.
func (g Grid) PointCoords(id int) (i, j int) { return id % g.Nx, id / g.Nx }

// WrapPosition maps an arbitrary physical position into the periodic domain.
func (g Grid) WrapPosition(x, y float64) (float64, float64) {
	x = wrapF(x, g.Lx)
	y = wrapF(y, g.Ly)
	return x, y
}

// CellOf returns the cell (cx, cy) containing physical position (x, y),
// after periodic wrapping.
func (g Grid) CellOf(x, y float64) (cx, cy int) {
	x, y = g.WrapPosition(x, y)
	cx = int(x / g.Dx())
	cy = int(y / g.Dy())
	// Guard against x == Lx after floating-point wrap.
	if cx >= g.Nx {
		cx = g.Nx - 1
	}
	if cy >= g.Ny {
		cy = g.Ny - 1
	}
	return cx, cy
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

func wrapF(x, l float64) float64 {
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
// Px×Py processor grid. The assignment of ranks to processor-grid tiles is
// given by a numbering: row-major by default, or along a space-filling
// curve of the processor grid (the paper's Figure 10, where "Hilbert
// indexing is applied on 16 processor addresses"), which aligns mesh block
// r with the r-th segment of the cell-index space and hence with particle
// chunk r.
type Dist struct {
	G      Grid
	P      int
	Px, Py int

	// tileRank[ty*Px+tx] is the rank owning tile (tx, ty); rankTile is the
	// inverse. Nil means the identity (row-major) numbering.
	tileRank []int
	rankTile []int

	// ownerX[i] / ownerY[j] is the processor-grid column / row whose BLOCK
	// piece holds grid column i / row j: BlockOwner tabulated once, because
	// the ghost registry asks the owner of every ghost point every iteration.
	ownerX, ownerY []int32
}

// newDist builds the distribution over a px×py processor grid.
func newDist(g Grid, px, py int) *Dist {
	return &Dist{G: g, P: px * py, Px: px, Py: py,
		ownerX: BlockOwners(g.Nx, px), ownerY: BlockOwners(g.Ny, py)}
}

// NewDist chooses the processor-grid factorisation Px×Py = p whose blocks
// are closest to square (in physical aspect), the shape that minimises the
// field-solve halo perimeter.
func NewDist(g Grid, p int) (*Dist, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("mesh: non-positive rank count %d", p)
	}
	bestPx, bestScore := 1, worstScore
	for px := 1; px <= p; px++ {
		if p%px != 0 {
			continue
		}
		py := p / px
		if px > g.Nx || py > g.Ny {
			continue
		}
		bw := float64(g.Nx) / float64(px)
		bh := float64(g.Ny) / float64(py)
		score := bw/bh + bh/bw // minimised at 2 when square
		if score < bestScore {
			bestScore = score
			bestPx = px
		}
	}
	if bestScore == worstScore {
		return nil, fmt.Errorf("mesh: cannot block-distribute %dx%d over %d ranks", g.Nx, g.Ny, p)
	}
	return newDist(g, bestPx, p/bestPx), nil
}

const worstScore = 1e300

// NewDist1D builds a distribution blocked along y only (Px = 1), the
// "distributed along one dimension" alternative mentioned in the paper.
func NewDist1D(g Grid, p int) (*Dist, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 || p > g.Ny {
		return nil, fmt.Errorf("mesh: cannot 1-D distribute %d rows over %d ranks", g.Ny, p)
	}
	return newDist(g, 1, p), nil
}

// Renumber installs the tile numbering of the given ordering over the
// processor grid: rank r owns the r-th tile along the ordering. The
// ordering function must be a bijection from tile coordinates onto
// 0..P−1 (e.g. an sfc.Indexer's Index method for the Px×Py grid).
func (d *Dist) Renumber(order func(tx, ty int) int) error {
	tileRank := make([]int, d.P)
	rankTile := make([]int, d.P)
	seen := make([]bool, d.P)
	for ty := 0; ty < d.Py; ty++ {
		for tx := 0; tx < d.Px; tx++ {
			r := order(tx, ty)
			if r < 0 || r >= d.P || seen[r] {
				return fmt.Errorf("mesh: tile ordering is not a bijection at (%d,%d) -> %d", tx, ty, r)
			}
			seen[r] = true
			tileRank[ty*d.Px+tx] = r
			rankTile[r] = ty*d.Px + tx
		}
	}
	d.tileRank = tileRank
	d.rankTile = rankTile
	return nil
}

// RankCoords returns rank r's processor-grid coordinates.
func (d *Dist) RankCoords(r int) (px, py int) {
	if d.rankTile != nil {
		t := d.rankTile[r]
		return t % d.Px, t / d.Px
	}
	return r % d.Px, r / d.Px
}

// RankAt returns the rank at processor-grid coordinates (px, py), wrapped
// periodically (used for halo neighbours).
func (d *Dist) RankAt(px, py int) int {
	px = wrap(px, d.Px)
	py = wrap(py, d.Py)
	if d.tileRank != nil {
		return d.tileRank[py*d.Px+px]
	}
	return py*d.Px + px
}

// Bounds returns rank r's owned grid-point region as half-open ranges
// [i0, i1) × [j0, j1).
func (d *Dist) Bounds(r int) (i0, i1, j0, j1 int) {
	px, py := d.RankCoords(r)
	i0, i1 = BlockRange(d.G.Nx, d.Px, px)
	j0, j1 = BlockRange(d.G.Ny, d.Py, py)
	return i0, i1, j0, j1
}

// OwnerOfPoint returns the rank owning grid point (i, j) (wrapped).
func (d *Dist) OwnerOfPoint(i, j int) int {
	i = wrap(i, d.G.Nx)
	j = wrap(j, d.G.Ny)
	return d.RankAt(int(d.ownerX[i]), int(d.ownerY[j]))
}

// Neighbours returns the ranks adjacent to r in the four cardinal
// directions of the processor grid (−x, +x, −y, +y), with periodic wrap.
// Some entries may equal r when the processor grid is 1 wide in a
// dimension.
func (d *Dist) Neighbours(r int) (left, right, down, up int) {
	px, py := d.RankCoords(r)
	return d.RankAt(px-1, py), d.RankAt(px+1, py), d.RankAt(px, py-1), d.RankAt(px, py+1)
}

func (d *Dist) String() string {
	return fmt.Sprintf("dist{%dx%d points over %d=%dx%d ranks}", d.G.Nx, d.G.Ny, d.P, d.Px, d.Py)
}
