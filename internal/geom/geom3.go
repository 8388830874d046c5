// The three-dimensional geometry: internal/mesh3 + the 3-D SFC indexers +
// the field block with all six face halos and the trilinear pusher
// kernels, adapted to the Geometry seam. This is what turns the
// dimension-generic pipeline into a full 3-D PIC simulation.

package geom

import (
	"picpar/internal/commopt"
	"picpar/internal/field"
	"picpar/internal/mesh3"
	"picpar/internal/par"
	"picpar/internal/particle"
	"picpar/internal/pusher"
	"picpar/internal/sfc"
)

// G3 is the 3-D Geometry over a mesh3.Dist and an sfc.Indexer3.
type G3 struct {
	G  mesh3.Grid
	D  *mesh3.Dist
	Ix sfc.Indexer3
}

// New3 builds the 3-D geometry.
func New3(g mesh3.Grid, d *mesh3.Dist, ix sfc.Indexer3) *G3 {
	return &G3{G: g, D: d, Ix: ix}
}

// Dims implements Geometry.
func (ge *G3) Dims() int { return 3 }

// NumPoints implements Geometry.
func (ge *G3) NumPoints() int { return ge.G.NumPoints() }

// NumCells implements Geometry: the 3-D SFC indexer is a bijection onto
// [0, Nx·Ny·Nz), so the key space has one slot per cell.
func (ge *G3) NumCells() int { return ge.G.Nx * ge.G.Ny * ge.G.Nz }

// NumVertices implements Geometry.
func (ge *G3) NumVertices() int { return 8 }

// Ranks implements Geometry.
func (ge *G3) Ranks() int { return ge.D.P }

// AssignKeys implements Geometry.
func (ge *G3) AssignKeys(s *particle.Store) {
	for i := 0; i < s.Len(); i++ {
		cx, cy, cz := ge.G.CellOf(s.X[i], s.Y[i], s.Z[i])
		s.Key[i] = float64(ge.Ix.Index(cx, cy, cz))
	}
}

// CellKey implements Geometry: the same formula as AssignKeys, for one
// particle, without touching s.Key.
func (ge *G3) CellKey(s *particle.Store, i int) uint64 {
	cx, cy, cz := ge.G.CellOf(s.X[i], s.Y[i], s.Z[i])
	return uint64(ge.Ix.Index(cx, cy, cz))
}

// CellOwner implements Geometry: ownership of the cell's lower-corner grid
// point, matching OwnerOfParticle for any particle inside the cell.
func (ge *G3) CellOwner(key uint64) int {
	cx, cy, cz := ge.Ix.Coords(int(key))
	return ge.D.OwnerOfPoint(cx, cy, cz)
}

// Footprint implements Geometry: trilinear CIC over the eight cell
// vertices, wrapping the high edges like the 2-D footprint does.
func (ge *G3) Footprint(s *particle.Store, i int, fp *Footprint) { ge.footprint(s, i, fp, nil) }

// footprint is Footprint that, given a range kernel's block b, also
// records each vertex's slot in it (−1 outside): a range check per axis on
// coordinates it has, not Local.Slot's three divisions of the vertex id.
func (ge *G3) footprint(s *particle.Store, i int, fp *Footprint, b *block3) {
	g := ge.G
	w := pusher.Weights3(g, s.X[i], s.Y[i], s.Z[i])
	fp.N = 8
	for k, off := range pusher.VertexOffsets3 {
		gi := w.CX + off[0]
		gj := w.CY + off[1]
		gk := w.CZ + off[2]
		if gi >= g.Nx {
			gi = 0
		}
		if gj >= g.Ny {
			gj = 0
		}
		if gk >= g.Nz {
			gk = 0
		}
		fp.Gid[k] = int32((gk*g.Ny+gj)*g.Nx + gi)
		fp.W[k] = w.W[k]
		fp.slot[k] = -1
		if b != nil && uint(gi-b.x.i0) <= uint(b.x.m) && uint(gj-b.y.i0) <= uint(b.y.m) && uint(gk-b.z.i0) <= uint(b.z.m) {
			fp.slot[k] = int32(b.l.Idx(gi-b.x.i0, gj-b.y.i0, gk-b.z.i0))
		}
	}
}

// OwnerOfParticle implements Geometry.
func (ge *G3) OwnerOfParticle(s *particle.Store, i int) int {
	cx, cy, cz := ge.G.CellOf(s.X[i], s.Y[i], s.Z[i])
	return ge.D.OwnerOfPoint(cx, cy, cz)
}

// OwnerOfPoint implements Geometry.
func (ge *G3) OwnerOfPoint(gid int) int {
	ci, cj, ck := ge.G.PointCoords(gid)
	return ge.D.OwnerOfPoint(ci, cj, ck)
}

// AdjacentRanks implements Geometry: identical or 26-neighbours on the
// periodic processor grid.
func (ge *G3) AdjacentRanks(a, b int) bool {
	if a == b {
		return true
	}
	ax, ay, az := ge.D.RankCoords(a)
	bx, by, bz := ge.D.RankCoords(b)
	return wrapDist(ax-bx, ge.D.Px) <= 1 &&
		wrapDist(ay-by, ge.D.Py) <= 1 &&
		wrapDist(az-bz, ge.D.Pz) <= 1
}

// Move implements Geometry.
func (ge *G3) Move(s *particle.Store, i int, dt float64) { ge.MoveRange(s, i, i+1, dt) }

// MoveRange implements Geometry.
func (ge *G3) MoveRange(s *particle.Store, lo, hi int, dt float64) {
	pusher.MoveRange3(s, lo, hi, ge.G, dt)
}

// axis3 is axis for the 3-D grid, whose CellOf takes the cell from x/L·N
// while Weights3 takes the fraction from x/dx: both quotients are kept.
type axis3 struct {
	l, n, d float64 // domain length, global extent, cell size
	i0, m   int
}

// cell is axis.cell in three dimensions.
func (a axis3) cell(x float64) (li int, f float64, ok bool) {
	c := int(x / a.l * a.n)
	li = c - a.i0
	return li, x/a.d - float64(c), x >= 0 && x < a.l && uint(li) < uint(a.m)
}

// block3 is block2 in three dimensions.
type block3 struct {
	x, y, z axis3
	l       *field.Local
	off     [8]int
}

func (ge *G3) block(l *field.Local) block3 {
	g := ge.G
	b := block3{
		x: axis3{l: g.Lx, n: float64(g.Nx), d: g.Dx(), i0: l.Lo[0], m: l.N[0] - 1},
		y: axis3{l: g.Ly, n: float64(g.Ny), d: g.Dy(), i0: l.Lo[1], m: l.N[1] - 1},
		z: axis3{l: g.Lz, n: float64(g.Nz), d: g.Dz(), i0: l.Lo[2], m: l.N[2] - 1},
		l: l,
	}
	for k, v := range pusher.VertexOffsets3 {
		b.off[k] = l.Idx(v[0], v[1], v[2]) - l.Idx(0, 0, 0)
	}
	return b
}

// Deposit implements Geometry.
func (ge *G3) Deposit(s *particle.Store, lo, hi int, f *field.Local, table commopt.DupTable, ghostVals *[]float64) int {
	b := ge.block(f)
	a := f.Arrays()
	q := s.Charge
	ops := 0
	var fp Footprint
	for i := lo; i < hi; i++ {
		gamma := s.Gamma(i)
		vx, vy, vz := s.Px[i]/gamma, s.Py[i]/gamma, s.Pz[i]/gamma
		li, fx, okx := b.x.cell(s.X[i])
		lj, fy, oky := b.y.cell(s.Y[i])
		lk, fz, okz := b.z.cell(s.Z[i])
		if okx && oky && okz {
			w := pusher.CIC3(pusher.Clamp01(fx), pusher.Clamp01(fy), pusher.Clamp01(fz))
			depositOwned(a, b.l.Idx(li, lj, lk), b.off[:], w[:], q, vx, vy, vz)
			continue
		}
		ge.footprint(s, i, &fp, &b)
		ops += depositFootprint(&fp, a, table, ghostVals, q, vx, vy, vz)
	}
	return ops
}

// GatherPush implements Geometry.
func (ge *G3) GatherPush(s *particle.Store, lo, hi int, f *field.Local, table commopt.DupTable, ghostEB []float64, dt float64) {
	b := ge.block(f)
	a := f.Arrays()
	qmdt2 := pusher.HalfKick(s, dt)
	var fp Footprint
	for i := lo; i < hi; i++ {
		var ex, ey, ez, bx, by, bz float64
		li, fx, okx := b.x.cell(s.X[i])
		lj, fy, oky := b.y.cell(s.Y[i])
		lk, fz, okz := b.z.cell(s.Z[i])
		if okx && oky && okz {
			w := pusher.CIC3(pusher.Clamp01(fx), pusher.Clamp01(fy), pusher.Clamp01(fz))
			ex, ey, ez, bx, by, bz = gatherOwned(a, b.l.Idx(li, lj, lk), b.off[:], w[:])
		} else {
			ge.footprint(s, i, &fp, &b)
			ex, ey, ez, bx, by, bz = gatherFootprint(&fp, a, table, ghostEB)
		}
		s.Px[i], s.Py[i], s.Pz[i] = pusher.Boris(s.Px[i], s.Py[i], s.Pz[i], ex, ey, ez, bx, by, bz, qmdt2)
	}
}

// Generate implements Geometry.
func (ge *G3) Generate(cfg GenConfig) (*particle.Store, error) {
	return particle.Generate(cfg.over(ge.G.Lx, ge.G.Ly, ge.G.Lz))
}

// Generator implements Geometry.
func (ge *G3) Generator(cfg GenConfig) (*particle.Generator, error) {
	return particle.NewGenerator(cfg.over(ge.G.Lx, ge.G.Ly, ge.G.Lz))
}

// NewStore implements Geometry.
func (ge *G3) NewStore(n int, charge, mass float64) *particle.Store {
	return particle.NewStore3(n, charge, mass)
}

// NewFields implements Geometry.
func (ge *G3) NewFields(r int, pool *par.Pool) *field.Local {
	i0, i1, j0, j1, k0, k1 := ge.D.Bounds(r)
	left, right, down, up, back, front := ge.D.Neighbours(r)
	return field.NewLocal(field.Block{
		Dims:   3,
		Global: [3]int{ge.G.Nx, ge.G.Ny, ge.G.Nz},
		Lo:     [3]int{i0, j0, k0},
		N:      [3]int{i1 - i0, j1 - j0, k1 - k0},
		Nbr:    [3][2]int{{left, right}, {down, up}, {back, front}},
	}, pool)
}
