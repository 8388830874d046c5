// The two-dimensional geometry: internal/mesh + internal/sfc + the
// one-plane field block and the bilinear pusher, adapted to the Geometry
// seam. Every formula here is the one the pre-seam pipeline used inline,
// expression for expression, so 2-D runs stay bit-identical.

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

// G2 is the 2-D Geometry over a mesh.Dist and an sfc.Indexer.
type G2 struct {
	G  mesh.Grid
	D  *mesh.Dist
	Ix sfc.Indexer
}

// New2 builds the 2-D geometry.
func New2(g mesh.Grid, d *mesh.Dist, ix sfc.Indexer) *G2 {
	return &G2{G: g, D: d, Ix: ix}
}

// Dims implements Geometry.
func (ge *G2) Dims() int { return 2 }

// NumPoints implements Geometry.
func (ge *G2) NumPoints() int { return ge.G.NumPoints() }

// NumCells implements Geometry: the SFC indexer is a bijection onto
// [0, Nx·Ny), so the key space has one slot per cell.
func (ge *G2) NumCells() int { return ge.G.Nx * ge.G.Ny }

// NumVertices implements Geometry.
func (ge *G2) NumVertices() int { return 4 }

// Ranks implements Geometry.
func (ge *G2) Ranks() int { return ge.D.P }

// AssignKeys implements Geometry: CellOf with the cell sizes divided out
// once, not per particle.
func (ge *G2) AssignKeys(s *particle.Store) {
	g := ge.G
	dx, dy := g.Dx(), g.Dy()
	for i := 0; i < s.Len(); i++ {
		x, y := g.WrapPosition(s.X[i], s.Y[i])
		cx, cy := min(int(x/dx), g.Nx-1), min(int(y/dy), g.Ny-1)
		s.Key[i] = float64(ge.Ix.Index(cx, cy))
	}
}

// CellKey implements Geometry: the same formula as AssignKeys, for one
// particle, without touching s.Key.
func (ge *G2) CellKey(s *particle.Store, i int) uint64 {
	cx, cy := ge.G.CellOf(s.X[i], s.Y[i])
	return uint64(ge.Ix.Index(cx, cy))
}

// CellOwner implements Geometry: ownership of the cell's lower-corner grid
// point, matching OwnerOfParticle for any particle inside the cell.
func (ge *G2) CellOwner(key uint64) int {
	cx, cy := ge.Ix.Coords(int(key))
	return ge.D.OwnerOfPoint(cx, cy)
}

// Footprint implements Geometry: bilinear CIC over the four cell vertices,
// with the high-edge wrap the scatter loop has always used.
func (ge *G2) Footprint(s *particle.Store, i int, fp *Footprint) {
	ge.footprint(pusher.Weights(ge.G, s.X[i], s.Y[i]), fp, nil)
}

// footprint fills fp from the cell and weights w and, given a range
// kernel's block b, records each vertex's slot in it (see G3.footprint).
func (ge *G2) footprint(w pusher.Interp, fp *Footprint, b *block2) {
	g := ge.G
	fp.N = 4
	for k, off := range pusher.VertexOffsets {
		gi := w.CX + off[0]
		gj := w.CY + off[1]
		if gi >= g.Nx {
			gi = 0
		}
		if gj >= g.Ny {
			gj = 0
		}
		fp.Gid[k] = int32(gj*g.Nx + gi)
		fp.W[k] = w.W[k]
		fp.slot[k] = -1
		if b != nil && b.x.owns(gi) && b.y.owns(gj) {
			fp.slot[k] = int32(b.l.Idx(gi-b.x.i0, gj-b.y.i0, 0))
		}
	}
}

// OwnerOfParticle implements Geometry.
func (ge *G2) OwnerOfParticle(s *particle.Store, i int) int {
	cx, cy := ge.G.CellOf(s.X[i], s.Y[i])
	return ge.D.OwnerOfPoint(cx, cy)
}

// OwnerOfPoint implements Geometry.
func (ge *G2) OwnerOfPoint(gid int) int {
	ci, cj := ge.G.PointCoords(gid)
	return ge.D.OwnerOfPoint(ci, cj)
}

// AdjacentRanks implements Geometry: identical or 8-neighbours on the
// periodic processor grid.
func (ge *G2) AdjacentRanks(a, b int) bool {
	if a == b {
		return true
	}
	ax, ay := ge.D.RankCoords(a)
	bx, by := ge.D.RankCoords(b)
	return wrapDist(ax-bx, ge.D.Px) <= 1 && wrapDist(ay-by, ge.D.Py) <= 1
}

// Move implements Geometry.
func (ge *G2) Move(s *particle.Store, i int, dt float64) { ge.MoveRange(s, i, i+1, dt) }

// MoveRange implements Geometry.
func (ge *G2) MoveRange(s *particle.Store, lo, hi int, dt float64) {
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
// cell and the fraction because inside [0, L) the periodic wrap is the
// identity, and CellOf's high-edge clamp cannot bind below the block's
// last point — so an ok cell and fraction are exactly Footprint's.
func (a axis) cell(x float64) (li int, f float64, ok bool) {
	q := x / a.d
	c := int(q)
	li = c - a.i0
	return li, q - float64(c), x >= 0 && x < a.l && uint(li) < uint(a.m)
}

// exact reports whether cell's li and fraction for x are Weights' own: x
// in [0, L) and the cell below N, so CellOf's clamp does not bind.
func (a axis) exact(x float64, li int) bool { return x >= 0 && x < a.l && li+a.i0 < a.n }

// block2 is one rank's owned block in halo layout: its two axes and the
// slot offsets of a cell's four vertices from its lower-left one, in
// VertexOffsets order.
type block2 struct {
	x, y axis
	l    *field.Local
	off  [4]int
}

func (ge *G2) block(l *field.Local) block2 {
	g := ge.G
	b := block2{
		x: axis{g.Lx, g.Dx(), span{l.Lo[0], l.N[0] - 1, g.Nx}},
		y: axis{g.Ly, g.Dy(), span{l.Lo[1], l.N[1] - 1, g.Ny}},
		l: l,
	}
	for k, v := range pusher.VertexOffsets {
		b.off[k] = l.Idx(v[0], v[1], 0) - l.Idx(0, 0, 0)
	}
	return b
}

// exact reports whether the cell (li, lj) and fractions the axes found for
// (x, y) are pusher.Weights' own, else recell's: the kernels compute the
// weights inline, as returning them from a call cost ≈ 14 ns a particle.
func (b *block2) exact(x, y float64, li, lj int) bool {
	return b.x.exact(x, li) && b.y.exact(y, lj)
}

// recell is pusher.Weights' cell and unclamped fractions for (x, y).
func (ge *G2) recell(x, y float64) (cx, cy int, fx, fy float64) {
	cx, cy = ge.G.CellOf(x, y)
	return cx, cy, x/ge.G.Dx() - float64(cx), y/ge.G.Dy() - float64(cy)
}

// Deposit implements Geometry.
func (ge *G2) Deposit(s *particle.Store, lo, hi int, f *field.Local, table commopt.DupTable, ghostVals *[]float64) int {
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
		if okx && oky {
			w := pusher.CIC(pusher.Clamp01(fx), pusher.Clamp01(fy))
			depositOwned(a, b.l.Idx(li, lj, 0), b.off[:], w[:], q, vx, vy, vz)
			continue
		}
		cx, cy := li+b.x.i0, lj+b.y.i0
		if !b.exact(s.X[i], s.Y[i], li, lj) {
			cx, cy, fx, fy = ge.recell(s.X[i], s.Y[i])
		}
		w := pusher.CIC(pusher.Clamp01(fx), pusher.Clamp01(fy))
		if cell := cy*ge.G.Nx + cx; cell != fp.cell {
			ge.footprint(pusher.Interp{CX: cx, CY: cy, W: w}, &fp, &b)
			fp.resolve(cell, table, ghostVals)
		}
		ops += depositCell(&fp, w[:], a, *ghostVals, q, vx, vy, vz)
	}
	return ops
}

// GatherPush implements Geometry.
func (ge *G2) GatherPush(s *particle.Store, lo, hi int, f *field.Local, table commopt.DupTable, ghostEB []float64, dt float64) {
	b := ge.block(f)
	a := f.Arrays()
	qmdt2 := pusher.HalfKick(s, dt)
	fp := Footprint{cell: -1}
	var eb [6][pusher.Strip]float64
	for ; lo < hi; lo += pusher.Strip {
		n := min(hi-lo, pusher.Strip)
		for j := 0; j < n; j++ {
			i := lo + j
			var ex, ey, ez, bx, by, bz float64
			li, fx, okx := b.x.cell(s.X[i])
			lj, fy, oky := b.y.cell(s.Y[i])
			if okx && oky {
				w := pusher.CIC(pusher.Clamp01(fx), pusher.Clamp01(fy))
				ex, ey, ez, bx, by, bz = gatherOwned(a, b.l.Idx(li, lj, 0), b.off[:], w[:])
			} else {
				cx, cy := li+b.x.i0, lj+b.y.i0
				if !b.exact(s.X[i], s.Y[i], li, lj) {
					cx, cy, fx, fy = ge.recell(s.X[i], s.Y[i])
				}
				w := pusher.CIC(pusher.Clamp01(fx), pusher.Clamp01(fy))
				if cell := cy*ge.G.Nx + cx; cell != fp.cell {
					ge.footprint(pusher.Interp{CX: cx, CY: cy, W: w}, &fp, &b)
					fp.resolve(cell, table, nil)
				}
				ex, ey, ez, bx, by, bz = gatherCell(&fp, w[:], a, ghostEB)
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
func (ge *G2) ObserveCosts(s *particle.Store, lo, hi int, f *field.Local, led *machine.CostLedger, base, perGhost int) {
	b := ge.block(f)
	mx, my, key, units := -1, -1, 0, 0
	for i := lo; i < hi; i++ {
		li, _, okx := b.x.cell(s.X[i])
		lj, _, oky := b.y.cell(s.Y[i])
		cx, cy := li+b.x.i0, lj+b.y.i0
		interior := okx && oky
		if !interior && !b.exact(s.X[i], s.Y[i], li, lj) {
			cx, cy = ge.G.CellOf(s.X[i], s.Y[i])
		}
		if cx != mx || cy != my {
			mx, my, key, units = cx, cy, ge.Ix.Index(cx, cy), base
			if !interior {
				units += (4 - b.x.vertices(cx)*b.y.vertices(cy)) * perGhost
			}
		}
		led.ObserveN(key, units)
	}
}

// Generate implements Geometry.
func (ge *G2) Generate(cfg GenConfig) (*particle.Store, error) {
	return particle.Generate(cfg.over(ge.G.Lx, ge.G.Ly, 0))
}

// Generator implements Geometry.
func (ge *G2) Generator(cfg GenConfig) (*particle.Generator, error) {
	return particle.NewGenerator(cfg.over(ge.G.Lx, ge.G.Ly, 0))
}

// NewStore implements Geometry.
func (ge *G2) NewStore(n int, charge, mass float64) *particle.Store {
	return particle.NewStore(n, charge, mass)
}

// NewFields implements Geometry.
func (ge *G2) NewFields(r int, pool *par.Pool) *field.Local {
	i0, i1, j0, j1 := ge.D.Bounds(r)
	left, right, down, up := ge.D.Neighbours(r)
	return field.NewLocal(field.Block{
		Dims:   2,
		Global: [3]int{ge.G.Nx, ge.G.Ny, 1},
		Lo:     [3]int{i0, j0, 0},
		N:      [3]int{i1 - i0, j1 - j0, 1},
		Nbr:    [3][2]int{{left, right}, {down, up}},
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
