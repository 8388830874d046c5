package partition

import (
	"testing"

	"picpar/internal/geom"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/sfc"
)

// TestMeasureIndependent3D sanity-checks the generic metrics over a 3-D
// geometry: a uniform population on an 8-rank cube is balanced, every rank
// has ghost points, and Hilbert keying keeps communication local.
func TestMeasureIndependent3D(t *testing.T) {
	g := mesh.NewGrid3(16, 16, 16)
	d, err := mesh.NewDistOrdered(g, 8, sfc.SchemeHilbert)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sfc.New3(sfc.SchemeHilbert, g.Nx, g.Ny, g.Nz)
	if err != nil {
		t.Fatal(err)
	}
	ge := geom.New3(g, d, ix)
	s, err := particle.Generate(particle.Config{
		N: 8192, Lx: g.Lx, Ly: g.Ly, Lz: g.Lz, Distribution: particle.DistUniform, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	l := BuildIndependent(ge, s)
	q := Measure(ge, l, s, nil)
	if q.ParticleImbalance > 1.001 {
		t.Errorf("equal-count dealing should balance particles, got imbalance %g", q.ParticleImbalance)
	}
	if q.GridImbalance != 1 {
		t.Errorf("8 ranks over a 16^3 BLOCK mesh should balance cells, got %g", q.GridImbalance)
	}
	if q.MaxGhostPoints == 0 || q.TotalGhostPoints == 0 {
		t.Errorf("uniform population must touch off-processor points, got max %d total %d",
			q.MaxGhostPoints, q.TotalGhostPoints)
	}
	// On a 2×2×2 processor grid every rank is a 26-neighbour of every
	// other, so all ghost traffic classifies as local.
	if q.NonLocalFraction != 0 {
		t.Errorf("2x2x2 torus has no non-neighbours, got non-local fraction %g", q.NonLocalFraction)
	}
}
