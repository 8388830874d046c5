// The three-dimensional geometry: internal/mesh3 + the 3-D SFC indexers +
// the field block with all six face halos and the trilinear pusher
// kernels, adapted to the Geometry seam. This is what turns the
// dimension-generic pipeline into a full 3-D PIC simulation.

package geom

import (
	"picpar/internal/commopt"
	"picpar/internal/field"
	"picpar/internal/machine"
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
func (ge *G3) Footprint(s *particle.Store, i int, fp *Footprint) {
	ge.footprint(pusher.Weights3(ge.G, s.X[i], s.Y[i], s.Z[i]), fp, nil)
}

// footprint fills fp from the cell and weights w and, given a range
// kernel's block b, records each vertex's slot in it (−1 outside): a range
// check per axis on coordinates it has, not Local.Slot's three divisions
// of the vertex id.
func (ge *G3) footprint(w pusher.Interp3, fp *Footprint, b *block3) {
	g := ge.G
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
		if b != nil && b.x.owns(gi) && b.y.owns(gj) && b.z.owns(gk) {
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
	l, nf, d float64 // domain length, global extent, cell size
	span
}

// cell is axis.cell in three dimensions.
func (a axis3) cell(x float64) (li int, f float64, ok bool) {
	c := int(x / a.l * a.nf)
	li = c - a.i0
	return li, x/a.d - float64(c), x >= 0 && x < a.l && uint(li) < uint(a.m)
}

// exact is axis.exact in three dimensions.
func (a axis3) exact(x float64, li int) bool { return x >= 0 && x < a.l && li+a.i0 < a.n }

// block3 is block2 in three dimensions.
type block3 struct {
	x, y, z axis3
	l       *field.Local
	off     [8]int
}

func (ge *G3) block(l *field.Local) block3 {
	g := ge.G
	b := block3{
		x: axis3{g.Lx, float64(g.Nx), g.Dx(), span{l.Lo[0], l.N[0] - 1, g.Nx}},
		y: axis3{g.Ly, float64(g.Ny), g.Dy(), span{l.Lo[1], l.N[1] - 1, g.Ny}},
		z: axis3{g.Lz, float64(g.Nz), g.Dz(), span{l.Lo[2], l.N[2] - 1, g.Nz}},
		l: l,
	}
	for k, v := range pusher.VertexOffsets3 {
		b.off[k] = l.Idx(v[0], v[1], v[2]) - l.Idx(0, 0, 0)
	}
	return b
}

// weights is G2.weights in three dimensions.
func (ge *G3) weights(b *block3, s *particle.Store, i, li, lj, lk int, fx, fy, fz float64) pusher.Interp3 {
	if !b.x.exact(s.X[i], li) || !b.y.exact(s.Y[i], lj) || !b.z.exact(s.Z[i], lk) {
		return pusher.Weights3(ge.G, s.X[i], s.Y[i], s.Z[i])
	}
	return pusher.Interp3{CX: li + b.x.i0, CY: lj + b.y.i0, CZ: lk + b.z.i0, W: pusher.CIC3(pusher.Clamp01(fx), pusher.Clamp01(fy), pusher.Clamp01(fz))}
}

// Deposit implements Geometry.
func (ge *G3) Deposit(s *particle.Store, lo, hi int, f *field.Local, table commopt.DupTable, ghostVals *[]float64) int {
	b := ge.block(f)
	a := f.Arrays()
	q := s.Charge
	ops := 0
	fp := Footprint{cell: -1}
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
		w := ge.weights(&b, s, i, li, lj, lk, fx, fy, fz)
		if cell := (w.CZ*ge.G.Ny+w.CY)*ge.G.Nx + w.CX; cell != fp.cell {
			ge.footprint(w, &fp, &b)
			fp.resolve(cell, table, ghostVals)
		}
		ops += depositCell(&fp, w.W[:], a, *ghostVals, q, vx, vy, vz)
	}
	return ops
}

// GatherPush implements Geometry.
func (ge *G3) GatherPush(s *particle.Store, lo, hi int, f *field.Local, table commopt.DupTable, ghostEB []float64, dt float64) {
	b := ge.block(f)
	a := f.Arrays()
	qmdt2 := pusher.HalfKick(s, dt)
	fp := Footprint{cell: -1}
	for i := lo; i < hi; i++ {
		var ex, ey, ez, bx, by, bz float64
		li, fx, okx := b.x.cell(s.X[i])
		lj, fy, oky := b.y.cell(s.Y[i])
		lk, fz, okz := b.z.cell(s.Z[i])
		if okx && oky && okz {
			w := pusher.CIC3(pusher.Clamp01(fx), pusher.Clamp01(fy), pusher.Clamp01(fz))
			ex, ey, ez, bx, by, bz = gatherOwned(a, b.l.Idx(li, lj, lk), b.off[:], w[:])
		} else {
			w := ge.weights(&b, s, i, li, lj, lk, fx, fy, fz)
			if cell := (w.CZ*ge.G.Ny+w.CY)*ge.G.Nx + w.CX; cell != fp.cell {
				ge.footprint(w, &fp, &b)
				fp.resolve(cell, table, nil)
			}
			ex, ey, ez, bx, by, bz = gatherCell(&fp, w.W[:], a, ghostEB)
		}
		s.Px[i], s.Py[i], s.Pz[i] = pusher.Boris(s.Px[i], s.Py[i], s.Pz[i], ex, ey, ez, bx, by, bz, qmdt2)
	}
}

// ObserveCosts implements Geometry, as G2.ObserveCosts does.
func (ge *G3) ObserveCosts(s *particle.Store, lo, hi int, f *field.Local, led *machine.CostLedger, base, perGhost int) {
	b := ge.block(f)
	mx, my, mz, key, units := -1, -1, -1, 0, 0
	for i := lo; i < hi; i++ {
		li, _, okx := b.x.cell(s.X[i])
		lj, _, oky := b.y.cell(s.Y[i])
		lk, _, okz := b.z.cell(s.Z[i])
		cx, cy, cz := li+b.x.i0, lj+b.y.i0, lk+b.z.i0
		if okx && oky && okz {
			led.ObserveN(ge.Ix.Index(cx, cy, cz), base)
			continue
		}
		if !b.x.exact(s.X[i], li) || !b.y.exact(s.Y[i], lj) || !b.z.exact(s.Z[i], lk) {
			cx, cy, cz = ge.G.CellOf(s.X[i], s.Y[i], s.Z[i])
		}
		if cx != mx || cy != my || cz != mz {
			mx, my, mz, key = cx, cy, cz, ge.Ix.Index(cx, cy, cz)
			units = base + (8-b.x.vertices(cx)*b.y.vertices(cy)*b.z.vertices(cz))*perGhost
		}
		led.ObserveN(key, units)
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
