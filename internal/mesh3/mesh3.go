// Package mesh3 is the three-dimensional counterpart of internal/mesh:
// global grid geometry and BLOCK distribution over a Px×Py×Pz processor
// grid, with optional space-filling-curve rank numbering for alignment.
// It backs the 3-D partitioning analysis that demonstrates the paper's
// "generalizes to n dimensions" claim.
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
// optional SFC tile numbering (identity when nil).
type Dist struct {
	G          Grid
	P          int
	Px, Py, Pz int
	tileRank   []int
	rankTile   []int

	// Per-axis BLOCK owner tables; see mesh.Dist.
	ownerX, ownerY, ownerZ []int32
}

// NewDist picks the factorisation with the most cube-like blocks.
func NewDist(g Grid, p int) (*Dist, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("mesh3: non-positive rank count %d", p)
	}
	best := [3]int{}
	bestScore := 1e300
	for px := 1; px <= p; px++ {
		if p%px != 0 {
			continue
		}
		rem := p / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 {
				continue
			}
			pz := rem / py
			if px > g.Nx || py > g.Ny || pz > g.Nz {
				continue
			}
			bx := float64(g.Nx) / float64(px)
			by := float64(g.Ny) / float64(py)
			bz := float64(g.Nz) / float64(pz)
			// Surface-to-volume proxy: smaller is more cube-like.
			score := (bx*by + by*bz + bx*bz) / (bx * by * bz)
			if score < bestScore {
				bestScore = score
				best = [3]int{px, py, pz}
			}
		}
	}
	if bestScore == 1e300 {
		return nil, fmt.Errorf("mesh3: cannot block-distribute %dx%dx%d over %d ranks", g.Nx, g.Ny, g.Nz, p)
	}
	return &Dist{G: g, P: p, Px: best[0], Py: best[1], Pz: best[2],
		ownerX: mesh.BlockOwners(g.Nx, best[0]),
		ownerY: mesh.BlockOwners(g.Ny, best[1]),
		ownerZ: mesh.BlockOwners(g.Nz, best[2])}, nil
}

// NewDistOrdered builds a distribution with ranks numbered along the named
// 3-D space-filling curve of the processor grid.
func NewDistOrdered(g Grid, p int, scheme string) (*Dist, error) {
	d, err := NewDist(g, p)
	if err != nil {
		return nil, err
	}
	ix, err := sfc.New3(scheme, d.Px, d.Py, d.Pz)
	if err != nil {
		return nil, err
	}
	d.tileRank = make([]int, p)
	d.rankTile = make([]int, p)
	seen := make([]bool, p)
	for tz := 0; tz < d.Pz; tz++ {
		for ty := 0; ty < d.Py; ty++ {
			for tx := 0; tx < d.Px; tx++ {
				r := ix.Index(tx, ty, tz)
				if r < 0 || r >= p || seen[r] {
					return nil, fmt.Errorf("mesh3: ordering not a bijection at (%d,%d,%d)", tx, ty, tz)
				}
				seen[r] = true
				tile := (tz*d.Py+ty)*d.Px + tx
				d.tileRank[tile] = r
				d.rankTile[r] = tile
			}
		}
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

// LocalSize returns rank r's owned extents.
func (d *Dist) LocalSize(r int) (nx, ny, nz int) {
	i0, i1, j0, j1, k0, k1 := d.Bounds(r)
	return i1 - i0, j1 - j0, k1 - k0
}

// OwnerOfPoint returns the rank owning grid point (i, j, k), wrapped.
func (d *Dist) OwnerOfPoint(i, j, k int) int {
	i = wrap(i, d.G.Nx)
	j = wrap(j, d.G.Ny)
	k = wrap(k, d.G.Nz)
	return d.RankAt(int(d.ownerX[i]), int(d.ownerY[j]), int(d.ownerZ[k]))
}
