// The one geometry: internal/mesh + internal/sfc + the field block and the
// CIC pusher, adapted to the Geometry seam. A plane grid (Nz = 1) is the
// 2-D geometry: its z axis is one point wide with a slot stride of 0, a
// cell has the first four vertices of pusher.VertexOffsets, and a
// particle's z is never read.

package geom

import (
	"picpar/internal/commopt"
	"picpar/internal/field"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/par"
	"picpar/internal/particle"
	"picpar/internal/pusher"
	"picpar/internal/sfc"
)

// G is the Geometry over a mesh.Dist and its cell curve: 2-D over a plane
// grid, 3-D over any other.
type G struct {
	G    mesh.Grid
	D    *mesh.Dist
	Ix   sfc.Indexer3 // the cell curve; a 2-D curve is its plane z = 0
	dims int
	nv   int // vertices per cell: 4 or 8
}

// New2 builds the geometry of plane grid g under the 2-D cell curve ix.
func New2(g mesh.Grid, d *mesh.Dist, ix sfc.Indexer) *G {
	return New3(g, d, plane{ix})
}

// New3 builds the geometry of grid g under the cell curve ix.
func New3(g mesh.Grid, d *mesh.Dist, ix sfc.Indexer3) *G {
	dims := g.Dims()
	return &G{G: g, D: d, Ix: ix, dims: dims, nv: 1 << dims}
}

// plane is a 2-D cell curve as the z = 0 plane of a 3-D one.
type plane struct{ sfc.Indexer }

func (p plane) Index(x, y, _ int) int { return p.Indexer.Index(x, y) }

func (p plane) Coords(idx int) (x, y, z int) {
	x, y = p.Indexer.Coords(idx)
	return x, y, 0
}

func (p plane) Size() (w, h, d int) {
	w, h = p.Indexer.Size()
	return w, h, 1
}

// Dims implements Geometry.
func (ge *G) Dims() int { return ge.dims }

// NumPoints implements Geometry.
func (ge *G) NumPoints() int { return ge.G.NumPoints() }

// NumCells implements Geometry: the SFC indexer is a bijection onto
// [0, Nx·Ny·Nz), so the key space has one slot per cell.
func (ge *G) NumCells() int { return ge.G.NumPoints() }

// NumVertices implements Geometry.
func (ge *G) NumVertices() int { return ge.nv }

// Ranks implements Geometry.
func (ge *G) Ranks() int { return ge.D.P }

// z returns particle i's z, or 0 in 2-D.
func (ge *G) z(s *particle.Store, i int) float64 {
	if ge.dims == 3 {
		return s.Z[i]
	}
	return 0
}

// AssignKeys implements Geometry: CellOf with the cell sizes divided out
// once, not per particle.
func (ge *G) AssignKeys(s *particle.Store) {
	g := &ge.G
	dx, dy, dz := g.Dx(), g.Dy(), g.Dz()
	zs := ge.zs(s)
	for i := range s.Key {
		cz := 0
		if zs != nil {
			cz = min(int(mesh.Wrap(zs[i], g.Lz)/dz), g.Nz-1)
		}
		cx := min(int(mesh.Wrap(s.X[i], g.Lx)/dx), g.Nx-1)
		cy := min(int(mesh.Wrap(s.Y[i], g.Ly)/dy), g.Ny-1)
		s.Key[i] = float64(ge.Ix.Index(cx, cy, cz))
	}
}

// CellKey implements Geometry: the same formula as AssignKeys, for one
// particle, without touching s.Key.
func (ge *G) CellKey(s *particle.Store, i int) uint64 {
	return uint64(ge.Ix.Index(ge.G.CellOf(s.X[i], s.Y[i], ge.z(s, i))))
}

// CellOwner implements Geometry: ownership of the cell's lower-corner grid
// point, matching OwnerOfParticle for any particle inside the cell.
func (ge *G) CellOwner(key uint64) int {
	return ge.D.OwnerOfPoint(ge.Ix.Coords(int(key)))
}

// Footprint implements Geometry: CIC over the cell's vertices, wrapping
// the high edges.
func (ge *G) Footprint(s *particle.Store, i int, fp *Footprint) {
	w := pusher.Weights(ge.G, s.X[i], s.Y[i], ge.z(s, i))
	ge.footprint(w.CX, w.CY, w.CZ, &w.W, fp, nil)
}

// footprint fills fp from cell (cx, cy, cz) and weights w and, given a
// range kernel's block b, records each vertex's slot in it (−1 outside): a
// range check per axis on coordinates it has, not Local.Slot's three
// divisions of the vertex id.
func (ge *G) footprint(cx, cy, cz int, w *[8]float64, fp *Footprint, b *block) {
	g := ge.G
	fp.N = ge.nv
	for k, off := range pusher.VertexOffsets[:ge.nv] {
		gi := cx + off[0]
		gj := cy + off[1]
		gk := cz + off[2]
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
		fp.W[k] = w[k]
		fp.slot[k] = -1
		if b != nil && b.x.owns(gi) && b.y.owns(gj) && b.z.owns(gk) {
			fp.slot[k] = int32(b.l.Idx(gi-b.x.i0, gj-b.y.i0, gk-b.z.i0))
		}
	}
}

// OwnerOfParticle implements Geometry.
func (ge *G) OwnerOfParticle(s *particle.Store, i int) int {
	return ge.D.OwnerOfPoint(ge.G.CellOf(s.X[i], s.Y[i], ge.z(s, i)))
}

// OwnerOfPoint implements Geometry.
func (ge *G) OwnerOfPoint(gid int) int {
	return ge.D.OwnerOfPoint(ge.G.PointCoords(gid))
}

// AdjacentRanks implements Geometry: identical or 8-neighbours (26 in
// 3-D) on the periodic processor grid.
func (ge *G) AdjacentRanks(a, b int) bool {
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
func (ge *G) Move(s *particle.Store, i int, dt float64) { ge.MoveRange(s, i, i+1, dt) }

// MoveRange implements Geometry.
func (ge *G) MoveRange(s *particle.Store, lo, hi int, dt float64) {
	pusher.MoveRange(s, lo, hi, ge.G, dt)
}

// span is a block's owned points i0 .. i0+m along an axis of n points.
type span struct{ i0, m, n int }

func (sp span) owns(c int) bool { return uint(c-sp.i0) <= uint(sp.m) }

// vertices counts the owned points among cell c's two, the +1 point
// wrapping at the high edge as footprint's does.
func (sp span) vertices(c int) (n int) {
	for _, v := range [2]int{c, (c + 1) % sp.n} {
		if sp.owns(v) {
			n++
		}
	}
	return n
}

// axis is one dimension of a rank's owned block as a range kernel sees it:
// what the kernel hoists out of its particle loop.
type axis struct {
	l, d float64 // domain length and cell size
	span
}

// cell locates coordinate x: its cell relative to the block's first point
// and its unclamped in-cell fraction, ok when both of the cell's points
// along this axis are owned with no periodic wrap. One quotient serves the
// cell and the fraction, as in CellOf, because inside [0, L) the periodic
// wrap is the identity, and CellOf's high-edge clamp cannot bind below the
// block's last point — so an ok cell and fraction are exactly Footprint's.
func (a *axis) cell(x float64) (li int, f float64, ok bool) {
	q := x / a.d
	c := int(q)
	li = c - a.i0
	return li, q - float64(c), x >= 0 && x < a.l && uint(li) < uint(a.m)
}

// exact reports whether cell's li and fraction for x are Weights' own: x
// in [0, L) and the cell below N, so CellOf's clamp does not bind.
func (a *axis) exact(x float64, li int) bool { return x >= 0 && x < a.l && li+a.i0 < a.n }

// block is one rank's owned block in halo layout: its three axes (z one
// point wide in 2-D) and the slot offsets of a cell's vertices from its
// lower corner one, in VertexOffsets order.
type block struct {
	x, y, z axis
	l       *field.Local
	off     [8]int
}

func (ge *G) block(l *field.Local) block {
	g := ge.G
	b := block{
		x: axis{g.Lx, g.Dx(), span{l.Lo[0], l.N[0] - 1, g.Nx}},
		y: axis{g.Ly, g.Dy(), span{l.Lo[1], l.N[1] - 1, g.Ny}},
		z: axis{g.Lz, g.Dz(), span{l.Lo[2], l.N[2] - 1, g.Nz}},
		l: l,
	}
	for k, v := range pusher.VertexOffsets[:ge.nv] {
		b.off[k] = l.Idx(v[0], v[1], v[2]) - l.Idx(0, 0, 0)
	}
	return b
}

// zs returns s.Z in 3-D and nil in 2-D, where a particle's z is never
// read: its cell along z is 0 with fraction 0.
func (ge *G) zs(s *particle.Store) []float64 {
	if ge.dims == 3 {
		return s.Z
	}
	return nil
}

// exact reports whether the cell (li, lj, lk) and fractions the axes found
// for (x, y, z) are pusher.Weights' own, else recell's: the kernels
// compute the weights inline, as returning them from a call cost ≈ 14 ns a
// particle.
func (b *block) exact(x, y, z float64, li, lj, lk int) bool {
	return b.x.exact(x, li) && b.y.exact(y, lj) && b.z.exact(z, lk)
}

// cellIndex is the row-major id of in-range cell (cx, cy, cz).
func (ge *G) cellIndex(cx, cy, cz int) int { return (cz*ge.G.Ny+cy)*ge.G.Nx + cx }

// recell is pusher.Weights' cell and clamped fractions for (x, y, z).
// The fractions the axes find for an interior or exact cell need no
// clamp: q − ⌊q⌋ for 0 ≤ q < N lies in [0, 1).
func (ge *G) recell(x, y, z float64) (cx, cy, cz int, fx, fy, fz float64) {
	g := &ge.G
	cx, cy, cz = g.CellOf(x, y, z)
	return cx, cy, cz, pusher.Clamp01(x/g.Dx() - float64(cx)),
		pusher.Clamp01(y/g.Dy() - float64(cy)), pusher.Clamp01(z/g.Dz() - float64(cz))
}

// Deposit implements Geometry.
func (ge *G) Deposit(s *particle.Store, lo, hi int, f *field.Local, table commopt.DupTable, ghostVals *[]float64) int {
	b := ge.block(f)
	a := f.Arrays()
	off, zs := b.off[:ge.nv], ge.zs(s)
	q := s.Charge
	ops := 0
	fp := Footprint{cell: -1}
	var w [8]float64
	for i := lo; i < hi; i++ {
		gamma := s.Gamma(i)
		vx, vy, vz := s.Px[i]/gamma, s.Py[i]/gamma, s.Pz[i]/gamma
		x, y, z := s.X[i], s.Y[i], 0.0
		li, fx, okx := b.x.cell(x)
		lj, fy, oky := b.y.cell(y)
		lk, fz, okz := 0, 0.0, true
		if zs != nil {
			z = zs[i]
			lk, fz, okz = b.z.cell(z)
		}
		if okx && oky && okz {
			w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = pusher.CIC(fx, fy, fz)
			depositOwned(a, b.l.Idx(li, lj, lk), off, w[:len(off)], q, vx, vy, vz)
			continue
		}
		cx, cy, cz := li+b.x.i0, lj+b.y.i0, lk+b.z.i0
		if !b.exact(x, y, z, li, lj, lk) {
			cx, cy, cz, fx, fy, fz = ge.recell(x, y, z)
		}
		w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = pusher.CIC(fx, fy, fz)
		if cell := ge.cellIndex(cx, cy, cz); cell != fp.cell {
			ge.footprint(cx, cy, cz, &w, &fp, &b)
			fp.resolve(cell, table, ghostVals)
		}
		ops += depositCell(&fp, w[:len(off)], a, *ghostVals, q, vx, vy, vz)
	}
	return ops
}

// GatherPush implements Geometry.
func (ge *G) GatherPush(s *particle.Store, lo, hi int, f *field.Local, table commopt.DupTable, ghostEB []float64, dt float64) {
	b := ge.block(f)
	a := f.Arrays()
	off, zs := b.off[:ge.nv], ge.zs(s)
	qmdt2 := pusher.HalfKick(s, dt)
	fp := Footprint{cell: -1}
	var eb [6][pusher.Strip]float64
	var w [8]float64
	for ; lo < hi; lo += pusher.Strip {
		n := min(hi-lo, pusher.Strip)
		for j := 0; j < n; j++ {
			i := lo + j
			var ex, ey, ez, bx, by, bz float64
			x, y, z := s.X[i], s.Y[i], 0.0
			li, fx, okx := b.x.cell(x)
			lj, fy, oky := b.y.cell(y)
			lk, fz, okz := 0, 0.0, true
			if zs != nil {
				z = zs[i]
				lk, fz, okz = b.z.cell(z)
			}
			if okx && oky && okz {
				w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = pusher.CIC(fx, fy, fz)
				ex, ey, ez, bx, by, bz = gatherOwned(a, b.l.Idx(li, lj, lk), off, w[:len(off)])
			} else {
				cx, cy, cz := li+b.x.i0, lj+b.y.i0, lk+b.z.i0
				if !b.exact(x, y, z, li, lj, lk) {
					cx, cy, cz, fx, fy, fz = ge.recell(x, y, z)
				}
				w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = pusher.CIC(fx, fy, fz)
				if cell := ge.cellIndex(cx, cy, cz); cell != fp.cell {
					ge.footprint(cx, cy, cz, &w, &fp, &b)
					fp.resolve(cell, table, nil)
				}
				ex, ey, ez, bx, by, bz = gatherCell(&fp, w[:len(off)], a, ghostEB)
			}
			eb[0][j], eb[1][j], eb[2][j], eb[3][j], eb[4][j], eb[5][j] = ex, ey, ez, bx, by, bz
		}
		pusher.BorisStrip(s.Px[lo:lo+n], s.Py[lo:lo+n], s.Pz[lo:lo+n], &eb, qmdt2)
	}
}

// ObserveCosts implements Geometry: an interior particle has the cell its
// axis quotients found and no unowned vertex; any other takes that cell if
// exact, else CellOf's, and counts its owned vertices axis by axis. The
// cell's key and units are found once per run of particles in one cell,
// interior or not.
func (ge *G) ObserveCosts(s *particle.Store, lo, hi int, f *field.Local, led *machine.CostLedger, base, perGhost int) {
	b := ge.block(f)
	zs := ge.zs(s)
	memo, key, units := -1, 0, 0
	for i := lo; i < hi; i++ {
		x, y, z := s.X[i], s.Y[i], 0.0
		li, _, okx := b.x.cell(x)
		lj, _, oky := b.y.cell(y)
		lk, okz := 0, true
		if zs != nil {
			z = zs[i]
			lk, _, okz = b.z.cell(z)
		}
		cx, cy, cz := li+b.x.i0, lj+b.y.i0, lk+b.z.i0
		interior := okx && oky && okz
		if !interior && !b.exact(x, y, z, li, lj, lk) {
			cx, cy, cz = ge.G.CellOf(x, y, z)
		}
		if cell := ge.cellIndex(cx, cy, cz); cell != memo {
			memo, key, units = cell, ge.Ix.Index(cx, cy, cz), base
			if !interior {
				owned := b.x.vertices(cx) * b.y.vertices(cy)
				if zs != nil {
					owned *= b.z.vertices(cz)
				}
				units += (ge.nv - owned) * perGhost
			}
		}
		led.ObserveN(key, units)
	}
}

// Generate implements Geometry.
func (ge *G) Generate(cfg GenConfig) (*particle.Store, error) {
	return particle.Generate(ge.genConfig(cfg))
}

// Generator implements Geometry.
func (ge *G) Generator(cfg GenConfig) (*particle.Generator, error) {
	return particle.NewGenerator(ge.genConfig(cfg))
}

// genConfig is cfg over this geometry's domain: Lz = 0 makes the
// generator's population 2-D.
func (ge *G) genConfig(cfg GenConfig) particle.Config {
	lz := 0.0
	if ge.dims == 3 {
		lz = ge.G.Lz
	}
	return cfg.over(ge.G.Lx, ge.G.Ly, lz)
}

// NewStore implements Geometry.
func (ge *G) NewStore(n int, charge, mass float64) *particle.Store {
	if ge.dims == 3 {
		return particle.NewStore3(n, charge, mass)
	}
	return particle.NewStore(n, charge, mass)
}

// NewFields implements Geometry.
func (ge *G) NewFields(r int, pool *par.Pool) *field.Local {
	lo, hi := ge.D.Bounds(r)
	g := ge.G
	return field.NewLocal(field.Block{
		Dims:   ge.dims,
		Global: [3]int{g.Nx, g.Ny, g.Nz},
		Lo:     lo,
		N:      [3]int{hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]},
		Nbr:    ge.D.Neighbours(r),
	}, pool)
}

func wrapDist(d, n int) int {
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}
