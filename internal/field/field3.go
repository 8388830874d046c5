// The three-dimensional field substrate: Local3 mirrors Local on a 3-D
// BLOCK submesh with a one-point halo on all six faces. The update is the
// full 3-D curl form of Maxwell's equations with central differences — a
// 6-point stencil, so face halos (no edges or corners) suffice, and the
// halo exchange stays at exactly six coalesced messages per refresh.

package field

import (
	"math"

	"picpar/internal/comm"
	"picpar/internal/mesh3"
	"picpar/internal/par"
	"picpar/internal/wire"
)

// Local3 is the field storage of one rank in three dimensions: the owned
// submesh plus a one-point halo on all sides. Owned local coordinates run
// 0..Nx-1 × 0..Ny-1 × 0..Nz-1; halo coordinates extend to −1 and Nx (Ny,
// Nz).
type Local3 struct {
	I0, J0, K0 int // global coordinates of owned point (0, 0, 0)
	Nx, Ny, Nz int // owned extents

	Ex, Ey, Ez []float64
	Bx, By, Bz []float64
	Jx, Jy, Jz []float64
	Rho        []float64

	strideX, strideY int // strideX = Nx+2, strideY = (Nx+2)·(Ny+2)

	// pool parallelises the curl sweeps over owned z slabs; see Local.pool
	// for the determinism argument (identical in 3-D).
	pool *par.Pool
	task sweepTask3
}

// SetPool installs the shared-memory worker pool the update sweeps run on;
// nil (a 1-worker pool) runs them inline.
func (l *Local3) SetPool(p *par.Pool) { l.pool = p }

// sweepTask3 is the par.Task of one 3-D curl sweep: slabs [kLo, kHi).
type sweepTask3 struct {
	l    *Local3
	dt   float64
	comp Components
}

func (t *sweepTask3) Work(_, kLo, kHi int) {
	if t.comp == CompE {
		t.l.updateESlabs(t.dt, kLo, kHi)
	} else {
		t.l.updateBSlabs(t.dt, kLo, kHi)
	}
}

// NewLocal3 allocates zeroed fields for the owned region of rank r under
// distribution d.
func NewLocal3(d *mesh3.Dist, r int) *Local3 {
	i0, i1, j0, j1, k0, k1 := d.Bounds(r)
	nx, ny, nz := i1-i0, j1-j0, k1-k0
	l := &Local3{
		I0: i0, J0: j0, K0: k0,
		Nx: nx, Ny: ny, Nz: nz,
		strideX: nx + 2, strideY: (nx + 2) * (ny + 2),
	}
	n := (nx + 2) * (ny + 2) * (nz + 2)
	l.Ex, l.Ey, l.Ez = make([]float64, n), make([]float64, n), make([]float64, n)
	l.Bx, l.By, l.Bz = make([]float64, n), make([]float64, n), make([]float64, n)
	l.Jx, l.Jy, l.Jz = make([]float64, n), make([]float64, n), make([]float64, n)
	l.Rho = make([]float64, n)
	return l
}

// Idx maps local coordinates (i ∈ [−1, Nx], j ∈ [−1, Ny], k ∈ [−1, Nz]) to
// the halo array offset.
func (l *Local3) Idx(i, j, k int) int {
	return (k+1)*l.strideY + (j+1)*l.strideX + (i + 1)
}

// Contains reports whether global grid point (gi, gj, gk) is owned by this
// submesh.
func (l *Local3) Contains(gi, gj, gk int) bool {
	return gi >= l.I0 && gi < l.I0+l.Nx &&
		gj >= l.J0 && gj < l.J0+l.Ny &&
		gk >= l.K0 && gk < l.K0+l.Nz
}

// ZeroSources clears J and Rho in preparation for a new scatter phase.
func (l *Local3) ZeroSources() {
	for i := range l.Jx {
		l.Jx[i], l.Jy[i], l.Jz[i], l.Rho[i] = 0, 0, 0, 0
	}
}

// fieldSolveWorkPerPoint3 is the modelled compute units for one 3-D
// grid-point update of one curl step: 6 components × (4 differences + 2
// multiply-adds) ≈ 36 flops.
const fieldSolveWorkPerPoint3 = 36

// UpdateE advances E by dt using ∂E/∂t = ∇×B − J with central differences.
// The B halo must be current. Compute cost is charged to r's current phase.
func (l *Local3) UpdateE(r comm.Transport, dt float64) { l.sweep(r, dt, CompE) }

// sweep runs one curl sweep over the owned z slabs on the pool.
func (l *Local3) sweep(r comm.Transport, dt float64, comp Components) {
	l.task = sweepTask3{l: l, dt: dt, comp: comp}
	l.pool.Run(l.Nz, &l.task)
	r.Compute(l.Nx * l.Ny * l.Nz * fieldSolveWorkPerPoint3)
}

func (l *Local3) updateESlabs(dt float64, kLo, kHi int) {
	sx, sy := l.strideX, l.strideY
	for k := kLo; k < kHi; k++ {
		for j := 0; j < l.Ny; j++ {
			for i := 0; i < l.Nx; i++ {
				c := l.Idx(i, j, k)
				dBzDy := (l.Bz[c+sx] - l.Bz[c-sx]) / 2
				dByDz := (l.By[c+sy] - l.By[c-sy]) / 2
				dBxDz := (l.Bx[c+sy] - l.Bx[c-sy]) / 2
				dBzDx := (l.Bz[c+1] - l.Bz[c-1]) / 2
				dByDx := (l.By[c+1] - l.By[c-1]) / 2
				dBxDy := (l.Bx[c+sx] - l.Bx[c-sx]) / 2
				l.Ex[c] += dt * (dBzDy - dByDz - l.Jx[c])
				l.Ey[c] += dt * (dBxDz - dBzDx - l.Jy[c])
				l.Ez[c] += dt * (dByDx - dBxDy - l.Jz[c])
			}
		}
	}
}

// UpdateB advances B by dt using ∂B/∂t = −∇×E. The E halo must be current.
func (l *Local3) UpdateB(r comm.Transport, dt float64) { l.sweep(r, dt, CompB) }

func (l *Local3) updateBSlabs(dt float64, kLo, kHi int) {
	sx, sy := l.strideX, l.strideY
	for k := kLo; k < kHi; k++ {
		for j := 0; j < l.Ny; j++ {
			for i := 0; i < l.Nx; i++ {
				c := l.Idx(i, j, k)
				dEzDy := (l.Ez[c+sx] - l.Ez[c-sx]) / 2
				dEyDz := (l.Ey[c+sy] - l.Ey[c-sy]) / 2
				dExDz := (l.Ex[c+sy] - l.Ex[c-sy]) / 2
				dEzDx := (l.Ez[c+1] - l.Ez[c-1]) / 2
				dEyDx := (l.Ey[c+1] - l.Ey[c-1]) / 2
				dExDy := (l.Ex[c+sx] - l.Ex[c-sx]) / 2
				l.Bx[c] += dt * (-(dEzDy - dEyDz))
				l.By[c] += dt * (-(dExDz - dEzDx))
				l.Bz[c] += dt * (-(dEyDx - dExDy))
			}
		}
	}
}

// Halo exchange tags for the z direction (x and y reuse the 2-D tags).
const (
	tagHaloZLow  comm.Tag = comm.TagUser + 14
	tagHaloZHigh comm.Tag = comm.TagUser + 15
)

func (l *Local3) comps(c Components) [3][]float64 {
	if c == CompE {
		return [3][]float64{l.Ex, l.Ey, l.Ez}
	}
	return [3][]float64{l.Bx, l.By, l.Bz}
}

// ExchangeHalo fills the one-point face halos of the selected components
// from the six neighbouring ranks with periodic global boundaries. As in
// 2-D, the three components travelling in the same direction are coalesced
// into a single message — six messages of 3·(face extent) values per rank.
// The 6-point stencil needs no edge or corner halos, so owned faces
// suffice in every direction. Faces are wire buffers, returned to the pool
// by the fill that unpacks them.
func (l *Local3) ExchangeHalo(r comm.Transport, d *mesh3.Dist, which Components) {
	f := l.comps(which)
	left, right, down, up, back, front := d.Neighbours(r.Rank())

	// X direction: owned faces i=0 and i=Nx−1 (extent Ny×Nz per component).
	sendFaceX := func(i int) []float64 {
		buf := wire.Get(3 * l.Ny * l.Nz)
		for c := 0; c < 3; c++ {
			for k := 0; k < l.Nz; k++ {
				for j := 0; j < l.Ny; j++ {
					buf = append(buf, f[c][l.Idx(i, j, k)])
				}
			}
		}
		return buf
	}
	fillFaceX := func(i int, buf []float64) {
		o := 0
		for c := 0; c < 3; c++ {
			for k := 0; k < l.Nz; k++ {
				for j := 0; j < l.Ny; j++ {
					f[c][l.Idx(i, j, k)] = buf[o]
					o++
				}
			}
		}
		wire.Put(buf)
	}
	comm.SendFloat64s(r, left, tagHaloXLow, sendFaceX(0))
	comm.SendFloat64s(r, right, tagHaloXHigh, sendFaceX(l.Nx-1))
	fillFaceX(l.Nx, comm.RecvFloat64s(r, right, tagHaloXLow))
	fillFaceX(-1, comm.RecvFloat64s(r, left, tagHaloXHigh))

	// Y direction: owned faces j=0 and j=Ny−1 (extent Nx×Nz).
	sendFaceY := func(j int) []float64 {
		buf := wire.Get(3 * l.Nx * l.Nz)
		for c := 0; c < 3; c++ {
			for k := 0; k < l.Nz; k++ {
				for i := 0; i < l.Nx; i++ {
					buf = append(buf, f[c][l.Idx(i, j, k)])
				}
			}
		}
		return buf
	}
	fillFaceY := func(j int, buf []float64) {
		o := 0
		for c := 0; c < 3; c++ {
			for k := 0; k < l.Nz; k++ {
				for i := 0; i < l.Nx; i++ {
					f[c][l.Idx(i, j, k)] = buf[o]
					o++
				}
			}
		}
		wire.Put(buf)
	}
	comm.SendFloat64s(r, down, tagHaloYLow, sendFaceY(0))
	comm.SendFloat64s(r, up, tagHaloYHigh, sendFaceY(l.Ny-1))
	fillFaceY(l.Ny, comm.RecvFloat64s(r, up, tagHaloYLow))
	fillFaceY(-1, comm.RecvFloat64s(r, down, tagHaloYHigh))

	// Z direction: owned faces k=0 and k=Nz−1 (extent Nx×Ny).
	sendFaceZ := func(k int) []float64 {
		buf := wire.Get(3 * l.Nx * l.Ny)
		for c := 0; c < 3; c++ {
			for j := 0; j < l.Ny; j++ {
				for i := 0; i < l.Nx; i++ {
					buf = append(buf, f[c][l.Idx(i, j, k)])
				}
			}
		}
		return buf
	}
	fillFaceZ := func(k int, buf []float64) {
		o := 0
		for c := 0; c < 3; c++ {
			for j := 0; j < l.Ny; j++ {
				for i := 0; i < l.Nx; i++ {
					f[c][l.Idx(i, j, k)] = buf[o]
					o++
				}
			}
		}
		wire.Put(buf)
	}
	comm.SendFloat64s(r, back, tagHaloZLow, sendFaceZ(0))
	comm.SendFloat64s(r, front, tagHaloZHigh, sendFaceZ(l.Nz-1))
	fillFaceZ(l.Nz, comm.RecvFloat64s(r, front, tagHaloZLow))
	fillFaceZ(-1, comm.RecvFloat64s(r, back, tagHaloZHigh))
}

// Solve performs one full leapfrog field-solve step: refresh B halo, update
// E, refresh E halo, update B.
func (l *Local3) Solve(r comm.Transport, d *mesh3.Dist, dt float64) {
	l.ExchangeHalo(r, d, CompB)
	l.UpdateE(r, dt)
	l.ExchangeHalo(r, d, CompE)
	l.UpdateB(r, dt)
}

// Energy returns this rank's field energy ½Σ(E² + B²) over owned points.
func (l *Local3) Energy() float64 {
	e := 0.0
	for k := 0; k < l.Nz; k++ {
		for j := 0; j < l.Ny; j++ {
			for i := 0; i < l.Nx; i++ {
				c := l.Idx(i, j, k)
				e += l.Ex[c]*l.Ex[c] + l.Ey[c]*l.Ey[c] + l.Ez[c]*l.Ez[c] +
					l.Bx[c]*l.Bx[c] + l.By[c]*l.By[c] + l.Bz[c]*l.Bz[c]
			}
		}
	}
	return e / 2
}

// MaxAbs returns the largest |value| across the six field components of the
// owned region.
func (l *Local3) MaxAbs() float64 {
	m := 0.0
	for k := 0; k < l.Nz; k++ {
		for j := 0; j < l.Ny; j++ {
			for i := 0; i < l.Nx; i++ {
				c := l.Idx(i, j, k)
				for _, v := range [6]float64{l.Ex[c], l.Ey[c], l.Ez[c], l.Bx[c], l.By[c], l.Bz[c]} {
					if a := math.Abs(v); a > m {
						m = a
					}
				}
			}
		}
	}
	return m
}
