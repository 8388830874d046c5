// Package pusher implements the per-particle kernels of the PIC time step:
// cloud-in-cell interpolation weights between a particle and the vertex
// grid points of its cell — bilinear over a plane cell's four, trilinear
// over a 3-D cell's eight — used by both the scatter and gather phases,
// and the relativistic Boris push that advances momenta and positions.
// Particles carry full 3-momenta in both dimensionalities (2d3v), so the
// push is the same in both.
package pusher

import (
	"math"

	"picpar/internal/mesh"
	"picpar/internal/particle"
)

// VertexOffsets enumerates the vertices of a cell relative to its lower
// corner grid point, in the order weights are produced (x fastest, then
// y, then z); a plane cell has the first four.
var VertexOffsets = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
}

// Modelled compute work (in δ units) per particle per vertex / per particle,
// matching the T_s_comp, T_g_comp and T_push terms of the paper's analysis.
const (
	// ScatterWorkPerVertex covers index computation, weight evaluation and
	// the four accumulations for one vertex (steps 1–3 of the paper's
	// scatter description): ~12 flops.
	ScatterWorkPerVertex = 12
	// GatherWorkPerVertex covers interpolating six field components from
	// one vertex: ~14 flops.
	GatherWorkPerVertex = 14
	// PushWorkPerParticle covers the Boris rotation and position update:
	// ~50 flops.
	PushWorkPerParticle = 50
)

// Interp holds the interpolation footprint of one particle: its cell and
// the CIC weights of the cell's vertices (the first four in a plane).
type Interp struct {
	CX, CY, CZ int
	W          [8]float64
}

// Weights computes the CIC interpolation of position (x, y, z) on grid g;
// a plane ignores z. The weights are non-negative and sum to 1.
func Weights(g mesh.Grid, x, y, z float64) (in Interp) {
	in.CX, in.CY, in.CZ = g.CellOf(x, y, z)
	// Fractional offsets inside the cell, in [0, 1). A position one ulp
	// below L can divide to N, which CellOf clamps to the last cell with
	// fraction 1; clamp to keep weights valid.
	fx := Clamp01(x/g.Dx() - float64(in.CX))
	fy := Clamp01(y/g.Dy() - float64(in.CY))
	fz := 0.0
	if g.Nz > 1 {
		fz = Clamp01(z/g.Dz() - float64(in.CZ))
	}
	w := &in.W
	w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = CIC(fx, fy, fz)
	return in
}

// CIC returns the weights of a cell's vertices, in VertexOffsets order,
// for in-cell fractions (fx, fy, fz) in [0, 1): the bilinear products
// times the z factors 1−fz and fz. With fz = +0, as always in a plane,
// 1−fz is exactly 1, so the first four are the bilinear products bit for
// bit. (Eight results, not an array: an array result is built in
// memory and copied, which cost the range kernels a store-forwarding stall
// per particle.)
func CIC(fx, fy, fz float64) (w0, w1, w2, w3, w4, w5, w6, w7 float64) {
	w0, w1, w2, w3 = (1-fx)*(1-fy), fx*(1-fy), (1-fx)*fy, fx*fy
	w4, w5, w6, w7 = w0*fz, w1*fz, w2*fz, w3*fz
	wz0 := 1 - fz
	return w0 * wz0, w1 * wz0, w2 * wz0, w3 * wz0, w4, w5, w6, w7
}

// Clamp01 clamps a cell fraction into [0, 1).
func Clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f >= 1 {
		return math.Nextafter(1, 0)
	}
	return f
}

// BorisPush advances the momentum of particle i of s by dt under fields
// (ex, ey, ez, bx, by, bz): the one-particle form of BorisStrip.
func BorisPush(s *particle.Store, i int, ex, ey, ez, bx, by, bz, dt float64) {
	s.Px[i], s.Py[i], s.Pz[i] = boris(s.Px[i], s.Py[i], s.Pz[i], ex, ey, ez, bx, by, bz, HalfKick(s, dt))
}

// HalfKick returns q/m·dt/2, the factor boris scales both field vectors by
// — constant over a store, so range kernels hoist it.
func HalfKick(s *particle.Store, dt float64) float64 { return s.Charge / s.Mass * dt / 2 }

// boris advances momentum (px, py, pz) under fields (ex, ey, ez, bx, by, bz)
// using the relativistic Boris scheme — half electric kick, magnetic
// rotation, half electric kick — with qmdt2 = HalfKick(s, dt). It is the
// scalar reference of BorisStrip, operand for operand.
func boris(px, py, pz, ex, ey, ez, bx, by, bz, qmdt2 float64) (float64, float64, float64) {
	// Half electric acceleration.
	ux := px + float64(qmdt2*ex)
	uy := py + float64(qmdt2*ey)
	uz := pz + float64(qmdt2*ez)

	// Magnetic rotation at the mid-step Lorentz factor.
	gamma := math.Sqrt(1 + float64(ux*ux) + float64(uy*uy) + float64(uz*uz))
	tx, ty, tz := qmdt2*bx/gamma, qmdt2*by/gamma, qmdt2*bz/gamma
	t2 := float64(tx*tx) + float64(ty*ty) + float64(tz*tz)
	sx, sy, sz := 2*tx/(1+t2), 2*ty/(1+t2), 2*tz/(1+t2)

	// u' = u + u × t
	upx := ux + float64(uy*tz) - float64(uz*ty)
	upy := uy + float64(uz*tx) - float64(ux*tz)
	upz := uz + float64(ux*ty) - float64(uy*tx)
	// u⁺ = u + u' × s
	ux += float64(upy*sz) - float64(upz*sy)
	uy += float64(upz*sx) - float64(upx*sz)
	uz += float64(upx*sy) - float64(upy*sx)

	// Half electric acceleration.
	return ux + float64(qmdt2*ex), uy + float64(qmdt2*ey), uz + float64(qmdt2*ez)
}

// MoveRange advances the positions of particles [lo, hi) of s by dt using
// their current momenta, wrapping periodically on grid g; z moves only in
// a 3-D store.
func MoveRange(s *particle.Store, lo, hi int, g mesh.Grid, dt float64) {
	lx, ly, lz := g.Lx, g.Ly, g.Lz
	for ; lo < hi; lo += Strip {
		n := min(hi-lo, Strip)
		x, y := s.X[lo:lo+n], s.Y[lo:lo+n]
		var z []float64
		if s.Z != nil {
			z = s.Z[lo : lo+n]
		}
		advance(x, y, z, s.Px[lo:lo+n], s.Py[lo:lo+n], s.Pz[lo:lo+n], dt)
		for j := range x {
			x[j], y[j] = mesh.Wrap(x[j], lx), mesh.Wrap(y[j], ly)
		}
		for j := range z {
			z[j] = mesh.Wrap(z[j], lz)
		}
	}
}
