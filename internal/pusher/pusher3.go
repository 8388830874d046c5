// The three-dimensional counterparts of the per-particle kernels: trilinear
// (cloud-in-cell) weights over the eight vertices of a 3-D cell and the
// position update. The Boris momentum push is already dimension-independent
// (particles carry full 3-momenta in 2d3v), so BorisPush is shared.

package pusher

import (
	"picpar/internal/mesh3"
	"picpar/internal/particle"
)

// VertexOffsets3 enumerates the eight vertices of a 3-D cell relative to
// its lower corner grid point, in the order weights are produced
// (x fastest, then y, then z).
var VertexOffsets3 = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
}

// Interp3 holds the interpolation footprint of one 3-D particle: its cell
// and the trilinear weights of the cell's eight vertices.
type Interp3 struct {
	CX, CY, CZ int
	W          [8]float64
}

// Weights3 computes the CIC interpolation of position (x, y, z) on grid g.
// The weights are non-negative and sum to 1.
func Weights3(g mesh3.Grid, x, y, z float64) Interp3 {
	cx, cy, cz := g.CellOf(x, y, z)
	fx := Clamp01(x/g.Dx() - float64(cx))
	fy := Clamp01(y/g.Dy() - float64(cy))
	fz := Clamp01(z/g.Dz() - float64(cz))
	return Interp3{CX: cx, CY: cy, CZ: cz, W: CIC3(fx, fy, fz)}
}

// CIC3 returns the trilinear weights of a cell's eight vertices, in
// VertexOffsets3 order, for in-cell fractions (fx, fy, fz).
func CIC3(fx, fy, fz float64) [8]float64 {
	wx0, wy0, wz0 := 1-fx, 1-fy, 1-fz
	return [8]float64{
		wx0 * wy0 * wz0,
		fx * wy0 * wz0,
		wx0 * fy * wz0,
		fx * fy * wz0,
		wx0 * wy0 * fz,
		fx * wy0 * fz,
		wx0 * fy * fz,
		fx * fy * fz,
	}
}

// MoveRange3 advances the positions of particles [lo, hi) of s by dt using
// their current momenta, wrapping periodically on grid g.
func MoveRange3(s *particle.Store, lo, hi int, g mesh3.Grid, dt float64) {
	for i := lo; i < hi; i++ {
		gamma := s.Gamma(i)
		x := s.X[i] + s.Px[i]/gamma*dt
		y := s.Y[i] + s.Py[i]/gamma*dt
		z := s.Z[i] + s.Pz[i]/gamma*dt
		s.X[i], s.Y[i], s.Z[i] = g.WrapPosition(x, y, z)
	}
}
