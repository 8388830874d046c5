// Package pusher implements the per-particle kernels of the PIC time step:
// bilinear (cloud-in-cell) interpolation weights between a particle and the
// four vertex grid points of its cell, used by both the scatter and gather
// phases, and the relativistic Boris push that advances momenta and
// positions.
package pusher

import (
	"math"

	"picpar/internal/mesh"
	"picpar/internal/particle"
)

// VertexOffsets enumerates the four vertices of a cell relative to its
// lower-left grid point, in the order weights are produced.
var VertexOffsets = [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}

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
// the bilinear weights of the cell's four vertices.
type Interp struct {
	CX, CY int
	W      [4]float64
}

// Weights computes the CIC interpolation of position (x, y) on grid g.
// The weights are non-negative and sum to 1.
func Weights(g mesh.Grid, x, y float64) Interp {
	cx, cy := g.CellOf(x, y)
	// Fractional offsets inside the cell, in [0, 1). Positions exactly on
	// the upper wrap boundary produce fractions slightly outside [0,1)
	// after CellOf clamping; clamp to keep weights valid.
	fx := Clamp01(x/g.Dx() - float64(cx))
	fy := Clamp01(y/g.Dy() - float64(cy))
	return Interp{CX: cx, CY: cy, W: CIC(fx, fy)}
}

// CIC returns the bilinear weights of a cell's four vertices, in
// VertexOffsets order, for in-cell fractions (fx, fy).
func CIC(fx, fy float64) [4]float64 {
	return [4]float64{
		(1 - fx) * (1 - fy),
		fx * (1 - fy),
		(1 - fx) * fy,
		fx * fy,
	}
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
// (ex, ey, ez, bx, by, bz): the one-particle form of Boris.
func BorisPush(s *particle.Store, i int, ex, ey, ez, bx, by, bz, dt float64) {
	s.Px[i], s.Py[i], s.Pz[i] = Boris(s.Px[i], s.Py[i], s.Pz[i], ex, ey, ez, bx, by, bz, HalfKick(s, dt))
}

// HalfKick returns q/m·dt/2, the factor Boris scales both field vectors by
// — constant over a store, so range kernels hoist it.
func HalfKick(s *particle.Store, dt float64) float64 { return s.Charge / s.Mass * dt / 2 }

// Boris advances momentum (px, py, pz) under fields (ex, ey, ez, bx, by, bz)
// using the relativistic Boris scheme — half electric kick, magnetic
// rotation, half electric kick — with qmdt2 = HalfKick(s, dt).
func Boris(px, py, pz, ex, ey, ez, bx, by, bz, qmdt2 float64) (float64, float64, float64) {
	// Half electric acceleration.
	ux := px + qmdt2*ex
	uy := py + qmdt2*ey
	uz := pz + qmdt2*ez

	// Magnetic rotation at the mid-step Lorentz factor.
	gamma := math.Sqrt(1 + ux*ux + uy*uy + uz*uz)
	tx, ty, tz := qmdt2*bx/gamma, qmdt2*by/gamma, qmdt2*bz/gamma
	t2 := tx*tx + ty*ty + tz*tz
	sx, sy, sz := 2*tx/(1+t2), 2*ty/(1+t2), 2*tz/(1+t2)

	// u' = u + u × t
	upx := ux + uy*tz - uz*ty
	upy := uy + uz*tx - ux*tz
	upz := uz + ux*ty - uy*tx
	// u⁺ = u + u' × s
	ux += upy*sz - upz*sy
	uy += upz*sx - upx*sz
	uz += upx*sy - upy*sx

	// Half electric acceleration.
	return ux + qmdt2*ex, uy + qmdt2*ey, uz + qmdt2*ez
}

// MoveRange advances the positions of particles [lo, hi) of s by dt using
// their current momenta, wrapping periodically on grid g.
func MoveRange(s *particle.Store, lo, hi int, g mesh.Grid, dt float64) {
	for i := lo; i < hi; i++ {
		gamma := s.Gamma(i)
		x := s.X[i] + s.Px[i]/gamma*dt
		y := s.Y[i] + s.Py[i]/gamma*dt
		s.X[i], s.Y[i] = g.WrapPosition(x, y)
	}
}

// Move is the one-particle form of MoveRange.
func Move(s *particle.Store, i int, g mesh.Grid, dt float64) { MoveRange(s, i, i+1, g, dt) }
