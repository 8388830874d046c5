package pusher

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"picpar/internal/mesh"
	"picpar/internal/particle"
)

func TestWeightsSumToOne(t *testing.T) {
	g := mesh.NewGrid(16, 8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := rng.Float64()*16, rng.Float64()*8
		w := Weights(g, x, y, 0)
		sum := w.W[0] + w.W[1] + w.W[2] + w.W[3]
		if math.Abs(sum-1) > 1e-12 {
			return false
		}
		for _, v := range w.W {
			if v < 0 || v > 1 {
				return false
			}
		}
		return w.CX >= 0 && w.CX < 16 && w.CY >= 0 && w.CY < 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestWeightsAtVertexAreDelta(t *testing.T) {
	g := mesh.NewGrid(8, 8)
	w := Weights(g, 3.0, 5.0, 0)
	if w.CX != 3 || w.CY != 5 {
		t.Fatalf("cell (%d,%d), want (3,5)", w.CX, w.CY)
	}
	if w.W != [8]float64{1} {
		t.Errorf("on-vertex weights %v, want delta at vertex 0", w.W)
	}
}

func TestWeightsCellCentre(t *testing.T) {
	g := mesh.NewGrid(8, 8)
	w := Weights(g, 2.5, 4.5, 0)
	for k, v := range w.W[:4] {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("centre weight[%d] = %g, want 0.25", k, v)
		}
	}
}

func TestWeightsUpperBoundaryClamped(t *testing.T) {
	g := mesh.NewGrid(4, 4)
	// Position that wraps to ~0 stays in a valid cell with valid weights.
	w := Weights(g, 4.0-1e-16, 2, 0)
	sum := w.W[0] + w.W[1] + w.W[2] + w.W[3]
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("boundary weights sum %g", sum)
	}
}

func newSingle(px, py, pz float64) *particle.Store {
	s := particle.NewStore(1, -1, 1)
	s.Append(2, 2, px, py, pz, 0)
	return s
}

func TestBorisPushPureElectric(t *testing.T) {
	// Zero B: two half kicks equal one full kick q·E·dt.
	s := newSingle(0, 0, 0)
	BorisPush(s, 0, 1, 0, 0, 0, 0, 0, 0.5)
	want := -1.0 * 1 * 0.5 // q = −1
	if math.Abs(s.Px[0]-want) > 1e-14 {
		t.Errorf("px = %g, want %g", s.Px[0], want)
	}
	if s.Py[0] != 0 || s.Pz[0] != 0 {
		t.Errorf("transverse momenta changed: %g %g", s.Py[0], s.Pz[0])
	}
}

func TestBorisPushPureMagneticPreservesEnergy(t *testing.T) {
	// Magnetic field does no work: |p| must be conserved exactly by the
	// rotation (a defining property of the Boris scheme).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newSingle(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		p0 := math.Sqrt(s.Px[0]*s.Px[0] + s.Py[0]*s.Py[0] + s.Pz[0]*s.Pz[0])
		for i := 0; i < 50; i++ {
			BorisPush(s, 0, 0, 0, 0, rng.Float64(), rng.Float64(), 2*rng.Float64()-1, 0.1)
		}
		p1 := math.Sqrt(s.Px[0]*s.Px[0] + s.Py[0]*s.Py[0] + s.Pz[0]*s.Pz[0])
		return math.Abs(p1-p0) < 1e-10*(1+p0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBorisGyration(t *testing.T) {
	// In a uniform Bz, a particle gyrates: after many small steps the
	// momentum vector rotates through ~ωc·t with |p| fixed.
	s := newSingle(0.1, 0, 0)
	dt := 0.01
	steps := 1000
	for i := 0; i < steps; i++ {
		BorisPush(s, 0, 0, 0, 0, 0, 0, 1.0, dt)
	}
	p1 := math.Hypot(s.Px[0], s.Py[0])
	if math.Abs(p1-0.1) > 1e-12 {
		t.Errorf("|p| drifted to %g", p1)
	}
	// q/m = −1, γ ≈ 1.005: rotation angle ≈ −ωc·t = +t/γ for q<0... just
	// assert the vector actually rotated away from the x axis at some
	// point and returned near it after a full period 2πγ.
	if s.Px[0] == 0.1 && s.Py[0] == 0 {
		t.Error("momentum never rotated")
	}
}

func TestMoveStraightLine(t *testing.T) {
	g := mesh.NewGrid(8, 8)
	s := newSingle(0.3, 0.4, 0) // gamma = sqrt(1.25)
	s.X[0], s.Y[0] = 1, 1
	gamma := math.Sqrt(1.25)
	MoveRange(s, 0, 1, g, 1.0)
	if math.Abs(s.X[0]-(1+0.3/gamma)) > 1e-14 || math.Abs(s.Y[0]-(1+0.4/gamma)) > 1e-14 {
		t.Errorf("moved to (%g,%g)", s.X[0], s.Y[0])
	}
}

func TestMoveWrapsPeriodically(t *testing.T) {
	g := mesh.NewGrid(4, 4)
	s := newSingle(10, 0, 0) // v ≈ c
	s.X[0], s.Y[0] = 3.9, 0.5
	MoveRange(s, 0, 1, g, 1.0)
	if s.X[0] < 0 || s.X[0] >= 4 {
		t.Errorf("x = %g not wrapped", s.X[0])
	}
}

// speed returns |v| of particle i: |p|/γ, always < 1 = c.
func speed(s *particle.Store, i int) float64 {
	return math.Sqrt(s.Px[i]*s.Px[i]+s.Py[i]*s.Py[i]+s.Pz[i]*s.Pz[i]) / s.Gamma(i)
}

func TestSpeedSubluminal(t *testing.T) {
	f := func(px, py, pz float64) bool {
		if math.IsNaN(px) || math.IsInf(px, 0) || math.Abs(px) > 1e150 ||
			math.IsNaN(py) || math.IsInf(py, 0) || math.Abs(py) > 1e150 ||
			math.IsNaN(pz) || math.IsInf(pz, 0) || math.Abs(pz) > 1e150 {
			return true
		}
		s := newSingle(px, py, pz)
		v := speed(s, 0)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedStaysSubluminalUnderHugeKicks(t *testing.T) {
	// Relativistic push: arbitrarily large E kicks never exceed c.
	s := newSingle(0, 0, 0)
	for i := 0; i < 20; i++ {
		BorisPush(s, 0, 1e6, 0, 0, 0, 0, 0, 1)
		if v := speed(s, 0); v >= 1 {
			t.Fatalf("superluminal after kick %d: v=%g", i, v)
		}
	}
	if g := s.Gamma(0); g < 1e3 {
		t.Errorf("expected ultra-relativistic gamma, got %g", g)
	}
}

func TestVertexOffsetsMatchWeightOrder(t *testing.T) {
	// Weight k belongs to vertex (CX+off[k][0], CY+off[k][1]): placing the
	// particle near a vertex concentrates weight on that vertex.
	g := mesh.NewGrid(8, 8)
	eps := 0.01
	targets := [][2]float64{{2 + eps, 3 + eps}, {3 - eps, 3 + eps}, {2 + eps, 4 - eps}, {3 - eps, 4 - eps}}
	for k, pos := range targets {
		w := Weights(g, pos[0], pos[1], 0)
		best, bi := -1.0, -1
		for i, v := range w.W {
			if v > best {
				best, bi = v, i
			}
		}
		if bi != k {
			t.Errorf("position near vertex %d has max weight at %d", k, bi)
		}
		vx := w.CX + VertexOffsets[k][0]
		vy := w.CY + VertexOffsets[k][1]
		if math.Abs(float64(vx)-pos[0]) > 1.0 || math.Abs(float64(vy)-pos[1]) > 1.0 {
			t.Errorf("vertex %d at (%d,%d) not adjacent to (%g,%g)", k, vx, vy, pos[0], pos[1])
		}
	}
}
