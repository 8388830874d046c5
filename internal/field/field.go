// Package field holds the electromagnetic mesh-grid arrays of the PIC
// problem on each rank's BLOCK submesh and advances Maxwell's equations on
// them with a finite-difference scheme in which every grid point needs data
// only from its axis neighbours — the stencil assumed by the paper's
// field-solve cost analysis.
//
// One block type serves both dimensions. A 3-D block carries a one-point
// halo on all six faces; a 2-D block is its one-plane case: Nz = 1, no z
// halo and a z stride of 0, so the two z-differences of the 3-D curl read
// the same slot and vanish exactly, and the arrays keep the (Nx+2)(Ny+2)
// slots of the plane.
//
// Units are normalised: c = 1, ε₀ = μ₀ = 1, unit cells. The full vector
// component set is carried: E = (Ex, Ey, Ez), B = (Bx, By, Bz), current
// density J = (Jx, Jy, Jz) and charge density Rho.
package field

import (
	"picpar/internal/comm"
	"picpar/internal/par"
	"picpar/internal/wire"
)

// Arrays is the component storage of one rank's fields in halo layout. The
// range kernels index these slices directly: by offset from the cell's
// lower-corner slot on the interior path, via Slot on the general path.
type Arrays struct {
	Ex, Ey, Ez []float64
	Bx, By, Bz []float64
	Jx, Jy, Jz []float64
	Rho        []float64
}

// arrays is the name Local embeds Arrays under, so the components read
// l.Ex and the Arrays method can return them.
type arrays = Arrays

// Block describes one rank's share of the global grid. Axis 2 of a 2-D
// block is the single plane k = 0: Global[2] = N[2] = 1 and Lo[2] = 0.
type Block struct {
	Dims   int       // 2 or 3
	Global [3]int    // global point extents
	Lo     [3]int    // global coordinates of owned point (0, 0, 0)
	N      [3]int    // owned extents
	Nbr    [3][2]int // low and high face neighbour ranks along each axis
}

// Local is the field storage of one rank: the owned block plus a one-point
// halo on every face. Owned local coordinates run 0..N[a]-1 along axis a;
// halo coordinates extend to −1 and N[a] (along z in 3-D only).
type Local struct {
	Block
	arrays

	stride [3]int // slot step along each axis; stride[2] = 0 in 2-D

	// pool parallelises the curl sweeps over owned (k, j) rows. Every
	// grid point's update reads only the other family of components (plus
	// J), so row ranges are write-disjoint and the result is bit-identical
	// for any worker count. task is stored so Run calls allocate nothing.
	pool *par.Pool
	task sweepTask
}

// sweepTask is the par.Task of one curl sweep: flattened rows [lo, hi) of
// one component-family update.
type sweepTask struct {
	l    *Local
	dt   float64
	comp Components // CompE: update E from B; CompB: update B from E
}

func (t *sweepTask) Work(_, lo, hi int) {
	if t.comp == CompE {
		t.l.updateERows(t.dt, lo, hi)
	} else {
		t.l.updateBRows(t.dt, lo, hi)
	}
}

// NewLocal allocates zeroed fields for block b. pool spreads the update
// sweeps over shared-memory workers; nil (a 1-worker pool) runs them
// inline.
func NewLocal(b Block, pool *par.Pool) *Local {
	sy := b.N[0] + 2
	n := sy * (b.N[1] + 2)
	l := &Local{Block: b, stride: [3]int{1, sy, 0}, pool: pool}
	if b.Dims == 3 {
		l.stride[2] = n
		n *= b.N[2] + 2
	}
	l.Ex, l.Ey, l.Ez = make([]float64, n), make([]float64, n), make([]float64, n)
	l.Bx, l.By, l.Bz = make([]float64, n), make([]float64, n), make([]float64, n)
	l.Jx, l.Jy, l.Jz = make([]float64, n), make([]float64, n), make([]float64, n)
	l.Rho = make([]float64, n)
	return l
}

// Idx maps local coordinates (i ∈ [−1, Nx], j ∈ [−1, Ny], k ∈ [−1, Nz]; k
// = 0 in 2-D) to the halo array offset.
func (l *Local) Idx(i, j, k int) int {
	return (k+1)*l.stride[2] + (j+1)*l.stride[1] + (i + 1)
}

// row is the slot of owned point (0, j, k) of flattened row k·Ny + j.
func (l *Local) row(r int) int { return l.Idx(0, r%l.N[1], r/l.N[1]) }

// rows is the number of owned (k, j) rows.
func (l *Local) rows() int { return l.N[1] * l.N[2] }

// Contains reports whether global grid point (gi, gj, gk) is owned by this
// block.
func (l *Local) Contains(gi, gj, gk int) bool {
	return gi >= l.Lo[0] && gi < l.Lo[0]+l.N[0] &&
		gj >= l.Lo[1] && gj < l.Lo[1]+l.N[1] &&
		gk >= l.Lo[2] && gk < l.Lo[2]+l.N[2]
}

// Slot maps a global grid-point id to its offset in the component arrays,
// or −1 when the point is not owned.
func (l *Local) Slot(gid int) int {
	nx, ny := l.Global[0], l.Global[1]
	gi, gj, gk := gid%nx, gid/nx%ny, gid/(nx*ny)
	if !l.Contains(gi, gj, gk) {
		return -1
	}
	return l.Idx(gi-l.Lo[0], gj-l.Lo[1], gk-l.Lo[2])
}

// Arrays returns the component storage (stable for the Local's lifetime).
func (l *Local) Arrays() *Arrays { return &l.arrays }

// ZeroSources clears J and Rho in preparation for a new scatter phase.
func (l *Local) ZeroSources() {
	for i := range l.Jx {
		l.Jx[i], l.Jy[i], l.Jz[i], l.Rho[i] = 0, 0, 0, 0
	}
}

// fieldSolveWorkPerAxis is the modelled compute units (T_f_comp) for one
// grid-point update of one curl step, per dimension: 6 components × (2
// differences + 2 multiply-adds) ≈ 24 flops in 2-D, 6 × (4 + 2) ≈ 36 in
// 3-D.
const fieldSolveWorkPerAxis = 12

// UpdateE advances E by dt using ∂E/∂t = ∇×B − J with central differences.
// The B halo must be current (call ExchangeHalo with the B components
// first). Compute cost is charged to r's current phase.
func (l *Local) UpdateE(r comm.Transport, dt float64) { l.sweep(r, dt, CompE) }

// UpdateB advances B by dt using ∂B/∂t = −∇×E. The E halo must be current.
func (l *Local) UpdateB(r comm.Transport, dt float64) { l.sweep(r, dt, CompB) }

// sweep runs one curl sweep over the owned rows on the pool.
func (l *Local) sweep(r comm.Transport, dt float64, comp Components) {
	l.task = sweepTask{l: l, dt: dt, comp: comp}
	l.pool.Run(l.rows(), &l.task)
	// The modelled charge is the total point count — invariant under the
	// worker count, so simulated times never depend on host parallelism.
	r.Compute(l.N[0] * l.rows() * fieldSolveWorkPerAxis * l.Dims)
}

func (l *Local) updateERows(dt float64, lo, hi int) {
	sy, sz := l.stride[1], l.stride[2]
	for r := lo; r < hi; r++ {
		c0 := l.row(r)
		for c := c0; c < c0+l.N[0]; c++ {
			// Central differences with unit cells: ∂/∂x f = (f[i+1]−f[i−1])/2.
			dBzDy := float64((l.Bz[c+sy] - l.Bz[c-sy]) / 2)
			dByDz := float64((l.By[c+sz] - l.By[c-sz]) / 2)
			dBxDz := float64((l.Bx[c+sz] - l.Bx[c-sz]) / 2)
			dBzDx := float64((l.Bz[c+1] - l.Bz[c-1]) / 2)
			dByDx := float64((l.By[c+1] - l.By[c-1]) / 2)
			dBxDy := float64((l.Bx[c+sy] - l.Bx[c-sy]) / 2)
			l.Ex[c] += float64(dt * (dBzDy - dByDz - l.Jx[c]))
			l.Ey[c] += float64(dt * (dBxDz - dBzDx - l.Jy[c]))
			l.Ez[c] += float64(dt * (dByDx - dBxDy - l.Jz[c]))
		}
	}
}

func (l *Local) updateBRows(dt float64, lo, hi int) {
	sy, sz := l.stride[1], l.stride[2]
	for r := lo; r < hi; r++ {
		c0 := l.row(r)
		for c := c0; c < c0+l.N[0]; c++ {
			dEzDy := float64((l.Ez[c+sy] - l.Ez[c-sy]) / 2)
			dEyDz := float64((l.Ey[c+sz] - l.Ey[c-sz]) / 2)
			dExDz := float64((l.Ex[c+sz] - l.Ex[c-sz]) / 2)
			dEzDx := float64((l.Ez[c+1] - l.Ez[c-1]) / 2)
			dEyDx := float64((l.Ey[c+1] - l.Ey[c-1]) / 2)
			dExDy := float64((l.Ex[c+sy] - l.Ex[c-sy]) / 2)
			l.Bx[c] += float64(dt * (-(dEzDy - dEyDz)))
			l.By[c] += float64(dt * (-(dExDz - dEzDx)))
			l.Bz[c] += float64(dt * (-(dEyDx - dExDy)))
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

// tagHalo is the first exchange tag (application tag space): axis a's
// faces travel on tagHalo+2a (towards the low neighbour) and tagHalo+2a+1.
const tagHalo comm.Tag = comm.TagUser + 10

// faceAxes lists, for each axis, the other two axes: a face's inner and
// outer loop.
var faceAxes = [3][2]int{{1, 2}, {0, 2}, {0, 1}}

// ExchangeHalo fills the one-point face halos of the selected components
// from the neighbouring ranks with periodic global boundaries. All three
// components travelling in the same direction are coalesced into a single
// message, so each rank sends exactly 2·dims messages of 3·(face extent)
// values — the 4·(τ + √(m/p)·l_grid·μ) term of the paper's 2-D field-solve
// analysis. The axis-neighbour stencil needs no edge or corner halos, so
// owned faces suffice in every direction.
//
// Works for any processor grid, including degenerate ones (neighbour ==
// self is handled without network traffic). Faces are wire buffers: a sent
// face belongs to its receiver, and each fill returns the face it unpacked
// to the pool.
func (l *Local) ExchangeHalo(r comm.Transport, which Components) {
	f := l.comps(which)
	for a := 0; a < l.Dims; a++ {
		low, high := l.Nbr[a][0], l.Nbr[a][1]
		tag := tagHalo + comm.Tag(2*a)
		// The owned face 0 becomes the low neighbour's halo face N[a], and
		// the owned face N[a]−1 the high neighbour's halo face −1.
		comm.SendFloat64s(r, low, tag, l.packFace(f, a, 0))
		comm.SendFloat64s(r, high, tag+1, l.packFace(f, a, l.N[a]-1))
		l.fillFace(f, a, l.N[a], comm.RecvFloat64s(r, high, tag))
		l.fillFace(f, a, -1, comm.RecvFloat64s(r, low, tag+1))
	}
}

// face returns the slot of point p on axis a with the other axes at 0, and
// the extents and strides of the face's inner and outer axes.
func (l *Local) face(a, p int) (c0, nu, su, nv, sv int) {
	u, v := faceAxes[a][0], faceAxes[a][1]
	return l.Idx(0, 0, 0) + p*l.stride[a], l.N[u], l.stride[u], l.N[v], l.stride[v]
}

// packFace copies axis a's plane p into a wire buffer: component first,
// then the other two axes with the higher one outer.
func (l *Local) packFace(f [3][]float64, a, p int) []float64 {
	c0, nu, su, nv, sv := l.face(a, p)
	buf := wire.Get(3 * nu * nv)
	for _, comp := range f {
		for v := 0; v < nv; v++ {
			for u := 0; u < nu; u++ {
				buf = append(buf, comp[c0+v*sv+u*su])
			}
		}
	}
	return buf
}

// fillFace is packFace's inverse: it unpacks buf into axis a's plane p and
// returns buf to the pool.
func (l *Local) fillFace(f [3][]float64, a, p int, buf []float64) {
	c0, nu, su, nv, sv := l.face(a, p)
	o := 0
	for _, comp := range f {
		for v := 0; v < nv; v++ {
			for u := 0; u < nu; u++ {
				comp[c0+v*sv+u*su] = buf[o]
				o++
			}
		}
	}
	wire.Put(buf)
}

// Solve performs one full leapfrog field-solve step: refresh B halo, update
// E, refresh E halo, update B.
func (l *Local) Solve(r comm.Transport, dt float64) {
	l.ExchangeHalo(r, CompB)
	l.UpdateE(r, dt)
	l.ExchangeHalo(r, CompE)
	l.UpdateB(r, dt)
}

// Energy returns this rank's field energy ½Σ(E² + B²) over owned points.
func (l *Local) Energy() float64 {
	e := 0.0
	for r := 0; r < l.rows(); r++ {
		c0 := l.row(r)
		for c := c0; c < c0+l.N[0]; c++ {
			e += float64(l.Ex[c]*l.Ex[c]) + float64(l.Ey[c]*l.Ey[c]) + float64(l.Ez[c]*l.Ez[c]) +
				float64(l.Bx[c]*l.Bx[c]) + float64(l.By[c]*l.By[c]) + float64(l.Bz[c]*l.Bz[c])
		}
	}
	return e / 2
}

// SumRho returns the deposited charge over owned points.
func (l *Local) SumRho() float64 {
	rho := 0.0
	for r := 0; r < l.rows(); r++ {
		c0 := l.row(r)
		for c := c0; c < c0+l.N[0]; c++ {
			rho += l.Rho[c]
		}
	}
	return rho
}
