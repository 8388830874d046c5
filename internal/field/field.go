// Package field holds the electromagnetic mesh-grid arrays of the PIC
// problem on each rank's BLOCK submesh and advances Maxwell's equations on
// them with a finite-difference scheme in which every grid point needs data
// only from its four axis neighbours — the stencil assumed by the paper's
// field-solve cost analysis.
//
// Units are normalised: c = 1, ε₀ = μ₀ = 1, unit cells. The full 2d3v
// component set is carried: E = (Ex, Ey, Ez), B = (Bx, By, Bz), current
// density J = (Jx, Jy, Jz) and charge density Rho.
package field

import (
	"fmt"
	"math"

	"picpar/internal/comm"
	"picpar/internal/mesh"
	"picpar/internal/par"
	"picpar/internal/wire"
)

// Local is the field storage of one rank: the owned submesh plus a one-point
// halo on all sides. Owned local coordinates run 0..Nx-1 × 0..Ny-1; halo
// coordinates extend to −1 and Nx (Ny).
type Local struct {
	I0, J0 int // global coordinates of owned point (0, 0)
	Nx, Ny int // owned extents

	Ex, Ey, Ez []float64
	Bx, By, Bz []float64
	Jx, Jy, Jz []float64
	Rho        []float64

	stride int

	// pool parallelises the curl sweeps over owned rows. Every
	// grid point's update reads only the other family of components (plus
	// J), so row ranges are write-disjoint and the result is bit-identical
	// for any worker count. task is stored so Run calls allocate nothing.
	pool *par.Pool
	task sweepTask
}

// SetPool installs the shared-memory worker pool the update sweeps run on;
// nil (a 1-worker pool) runs them inline.
func (l *Local) SetPool(p *par.Pool) { l.pool = p }

// sweepTask is the par.Task of one curl sweep: rows [jLo, jHi) of one
// component-family update.
type sweepTask struct {
	l    *Local
	dt   float64
	comp Components // CompE: update E from B; CompB: update B from E
}

func (t *sweepTask) Work(_, jLo, jHi int) {
	if t.comp == CompE {
		t.l.updateERows(t.dt, jLo, jHi)
	} else {
		t.l.updateBRows(t.dt, jLo, jHi)
	}
}

// NewLocal allocates zeroed fields for the owned region of rank r under
// distribution d.
func NewLocal(d *mesh.Dist, r int) *Local {
	i0, i1, j0, j1 := d.Bounds(r)
	nx, ny := i1-i0, j1-j0
	l := &Local{I0: i0, J0: j0, Nx: nx, Ny: ny, stride: nx + 2}
	n := (nx + 2) * (ny + 2)
	l.Ex, l.Ey, l.Ez = make([]float64, n), make([]float64, n), make([]float64, n)
	l.Bx, l.By, l.Bz = make([]float64, n), make([]float64, n), make([]float64, n)
	l.Jx, l.Jy, l.Jz = make([]float64, n), make([]float64, n), make([]float64, n)
	l.Rho = make([]float64, n)
	return l
}

// Idx maps local owned coordinates (i ∈ [−1, Nx], j ∈ [−1, Ny]) to the halo
// array offset.
func (l *Local) Idx(i, j int) int { return (j+1)*l.stride + (i + 1) }

// Contains reports whether global grid point (gi, gj) is owned by this
// submesh.
func (l *Local) Contains(gi, gj int) bool {
	return gi >= l.I0 && gi < l.I0+l.Nx && gj >= l.J0 && gj < l.J0+l.Ny
}

// LocalOf converts owned global coordinates to local ones. It panics if the
// point is not owned; callers route off-processor accesses through ghost
// tables instead.
func (l *Local) LocalOf(gi, gj int) (int, int) {
	if !l.Contains(gi, gj) {
		panic(fmt.Sprintf("field: point (%d,%d) not owned by submesh at (%d,%d)+%dx%d",
			gi, gj, l.I0, l.J0, l.Nx, l.Ny))
	}
	return gi - l.I0, gj - l.J0
}

// ZeroSources clears J and Rho in preparation for a new scatter phase.
func (l *Local) ZeroSources() {
	for i := range l.Jx {
		l.Jx[i], l.Jy[i], l.Jz[i], l.Rho[i] = 0, 0, 0, 0
	}
}

// fieldSolveWorkPerPoint is the modelled compute units (T_f_comp) for one
// grid-point update of one curl step: 6 components × (2 differences + 2
// multiply-adds) ≈ 24 flops.
const fieldSolveWorkPerPoint = 24

// UpdateE advances E by dt using ∂E/∂t = ∇×B − J with central differences.
// The B halo must be current (call ExchangeHalo with the B components
// first). Compute cost is charged to r's current phase.
func (l *Local) UpdateE(r comm.Transport, dt float64) { l.sweep(r, dt, CompE) }

// sweep runs one curl sweep over the owned rows on the pool.
func (l *Local) sweep(r comm.Transport, dt float64, comp Components) {
	l.task = sweepTask{l: l, dt: dt, comp: comp}
	l.pool.Run(l.Ny, &l.task)
	// The modelled charge is the total point count — invariant under the
	// worker count, so simulated times never depend on host parallelism.
	r.Compute(l.Nx * l.Ny * fieldSolveWorkPerPoint)
}

func (l *Local) updateERows(dt float64, jLo, jHi int) {
	s := l.stride
	for j := jLo; j < jHi; j++ {
		for i := 0; i < l.Nx; i++ {
			c := l.Idx(i, j)
			// Central differences with unit cells: ∂/∂x f = (f[i+1]−f[i−1])/2.
			dBzDy := (l.Bz[c+s] - l.Bz[c-s]) / 2
			dBzDx := (l.Bz[c+1] - l.Bz[c-1]) / 2
			dByDx := (l.By[c+1] - l.By[c-1]) / 2
			dBxDy := (l.Bx[c+s] - l.Bx[c-s]) / 2
			l.Ex[c] += dt * (dBzDy - l.Jx[c])
			l.Ey[c] += dt * (-dBzDx - l.Jy[c])
			l.Ez[c] += dt * (dByDx - dBxDy - l.Jz[c])
		}
	}
}

// UpdateB advances B by dt using ∂B/∂t = −∇×E. The E halo must be current.
func (l *Local) UpdateB(r comm.Transport, dt float64) { l.sweep(r, dt, CompB) }

func (l *Local) updateBRows(dt float64, jLo, jHi int) {
	s := l.stride
	for j := jLo; j < jHi; j++ {
		for i := 0; i < l.Nx; i++ {
			c := l.Idx(i, j)
			dEzDy := (l.Ez[c+s] - l.Ez[c-s]) / 2
			dEzDx := (l.Ez[c+1] - l.Ez[c-1]) / 2
			dEyDx := (l.Ey[c+1] - l.Ey[c-1]) / 2
			dExDy := (l.Ex[c+s] - l.Ex[c-s]) / 2
			l.Bx[c] += dt * (-dEzDy)
			l.By[c] += dt * (dEzDx)
			l.Bz[c] += dt * (-(dEyDx - dExDy))
		}
	}
}

// Components selects which vector fields ExchangeHalo moves.
type Components int

// Component sets for halo exchange.
const (
	CompE Components = iota // Ex, Ey, Ez
	CompB                   // Bx, By, Bz
)

func (l *Local) comps(c Components) [3][]float64 {
	if c == CompE {
		return [3][]float64{l.Ex, l.Ey, l.Ez}
	}
	return [3][]float64{l.Bx, l.By, l.Bz}
}

// Exchange tags (application tag space).
const (
	tagHaloXLow comm.Tag = comm.TagUser + 10 + iota
	tagHaloXHigh
	tagHaloYLow
	tagHaloYHigh
)

// ExchangeHalo fills the one-point halo of the selected components from the
// four neighbouring ranks with periodic global boundaries. All three
// components travelling in the same direction are coalesced into a single
// message, so each rank sends exactly four messages of 3·extent values —
// the 4·(τ + √(m/p)·l_grid·μ) term of the paper's field-solve analysis.
//
// Works for any processor grid, including degenerate 1×p and p×1 grids
// (neighbour == self is handled without network traffic).
//
// Faces are wire buffers: a sent face belongs to its receiver, and each
// fill returns the face it unpacked to the pool.
func (l *Local) ExchangeHalo(r comm.Transport, d *mesh.Dist, which Components) {
	f := l.comps(which)
	left, right, down, up := d.Neighbours(r.Rank())

	// X direction: send owned column 0 to the left neighbour (it becomes
	// their i=Nx halo column), and column Nx−1 to the right neighbour.
	sendCol := func(i int) []float64 {
		buf := wire.Get(3 * l.Ny)
		for k := 0; k < 3; k++ {
			for j := 0; j < l.Ny; j++ {
				buf = append(buf, f[k][l.Idx(i, j)])
			}
		}
		return buf
	}
	fillCol := func(i int, buf []float64) {
		for k := 0; k < 3; k++ {
			for j := 0; j < l.Ny; j++ {
				f[k][l.Idx(i, j)] = buf[k*l.Ny+j]
			}
		}
		wire.Put(buf)
	}
	comm.SendFloat64s(r, left, tagHaloXLow, sendCol(0))
	comm.SendFloat64s(r, right, tagHaloXHigh, sendCol(l.Nx-1))
	fillCol(l.Nx, comm.RecvFloat64s(r, right, tagHaloXLow))
	fillCol(-1, comm.RecvFloat64s(r, left, tagHaloXHigh))

	// Y direction: rows, including the x halo just filled is unnecessary
	// for the 4-point stencil, so plain owned rows suffice.
	sendRow := func(j int) []float64 {
		buf := wire.Get(3 * l.Nx)
		for k := 0; k < 3; k++ {
			for i := 0; i < l.Nx; i++ {
				buf = append(buf, f[k][l.Idx(i, j)])
			}
		}
		return buf
	}
	fillRow := func(j int, buf []float64) {
		for k := 0; k < 3; k++ {
			for i := 0; i < l.Nx; i++ {
				f[k][l.Idx(i, j)] = buf[k*l.Nx+i]
			}
		}
		wire.Put(buf)
	}
	comm.SendFloat64s(r, down, tagHaloYLow, sendRow(0))
	comm.SendFloat64s(r, up, tagHaloYHigh, sendRow(l.Ny-1))
	fillRow(l.Ny, comm.RecvFloat64s(r, up, tagHaloYLow))
	fillRow(-1, comm.RecvFloat64s(r, down, tagHaloYHigh))
}

// Solve performs one full leapfrog field-solve step: refresh B halo, update
// E, refresh E halo, update B.
func (l *Local) Solve(r comm.Transport, d *mesh.Dist, dt float64) {
	l.ExchangeHalo(r, d, CompB)
	l.UpdateE(r, dt)
	l.ExchangeHalo(r, d, CompE)
	l.UpdateB(r, dt)
}

// Energy returns this rank's field energy ½Σ(E² + B²) over owned points.
func (l *Local) Energy() float64 {
	e := 0.0
	for j := 0; j < l.Ny; j++ {
		for i := 0; i < l.Nx; i++ {
			c := l.Idx(i, j)
			e += l.Ex[c]*l.Ex[c] + l.Ey[c]*l.Ey[c] + l.Ez[c]*l.Ez[c] +
				l.Bx[c]*l.Bx[c] + l.By[c]*l.By[c] + l.Bz[c]*l.Bz[c]
		}
	}
	return e / 2
}

// TotalEnergy returns the global field energy on every rank.
func (l *Local) TotalEnergy(r comm.Transport) float64 {
	return comm.AllreduceFloat64(r, l.Energy(), func(a, b float64) float64 { return a + b })
}

// MaxAbs returns the largest |value| across the six field components of the
// owned region — a cheap stability diagnostic (blow-up detector).
func (l *Local) MaxAbs() float64 {
	m := 0.0
	for j := 0; j < l.Ny; j++ {
		for i := 0; i < l.Nx; i++ {
			c := l.Idx(i, j)
			for _, v := range [6]float64{l.Ex[c], l.Ey[c], l.Ez[c], l.Bx[c], l.By[c], l.Bz[c]} {
				if a := math.Abs(v); a > m {
					m = a
				}
			}
		}
	}
	return m
}
