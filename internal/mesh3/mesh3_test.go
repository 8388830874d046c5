package mesh3

import (
	"testing"

	"picpar/internal/mesh"
	"picpar/internal/sfc"
)

func TestGridValidate(t *testing.T) {
	g := NewGrid(4, 4, 4)
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if err := (&Grid{Nx: 0, Ny: 1, Nz: 1}).Validate(); err == nil {
		t.Error("zero extent accepted")
	}
}

func TestNumPoints(t *testing.T) {
	if g := NewGrid(3, 4, 5); g.NumPoints() != 60 {
		t.Error("NumPoints wrong")
	}
}

func TestPointIndexWraps(t *testing.T) {
	g := NewGrid(4, 4, 4)
	if g.PointIndex(-1, 0, 0) != g.PointIndex(3, 0, 0) {
		t.Error("negative x wrap")
	}
	if g.PointIndex(0, 4, 0) != g.PointIndex(0, 0, 0) {
		t.Error("y wrap")
	}
	if g.PointIndex(0, 0, -5) != g.PointIndex(0, 0, 3) {
		t.Error("deep negative z wrap")
	}
}

func TestCellOfBoundaries(t *testing.T) {
	g := NewGrid(8, 8, 8)
	if cx, cy, cz := g.CellOf(7.9999, 0, 8.0); cx != 7 || cy != 0 || cz != 0 {
		t.Errorf("CellOf = (%d,%d,%d)", cx, cy, cz)
	}
}

func TestNewDistPrefersCubes(t *testing.T) {
	d, err := mesh.NewDist(NewGrid(32, 32, 32), 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Px != 4 || d.Py != 4 || d.Pz != 4 {
		t.Errorf("got %dx%dx%d, want 4x4x4", d.Px, d.Py, d.Pz)
	}
}

func TestNewDistAnisotropic(t *testing.T) {
	// A flat slab should not be split along its thin dimension more than
	// it can bear.
	d, err := mesh.NewDist(NewGrid(64, 64, 2), 16)
	if err != nil {
		t.Fatal(err)
	}
	if d.Pz > 2 {
		t.Errorf("split thin dimension %d ways", d.Pz)
	}
}

func TestNewDistErrors(t *testing.T) {
	if _, err := mesh.NewDist(NewGrid(2, 2, 2), 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := mesh.NewDist(NewGrid(2, 2, 2), 1000); err == nil {
		t.Error("unfactorable p accepted")
	}
}

func TestNewDistOrderedRoundTrip(t *testing.T) {
	for _, scheme := range []string{sfc.SchemeHilbert, sfc.SchemeSnake, sfc.SchemeRowMajor} {
		d, err := NewDistOrdered(NewGrid(16, 16, 16), 8, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		seen := map[[3]int]bool{}
		for r := 0; r < 8; r++ {
			px, py, pz := d.RankCoords(r)
			key := [3]int{px, py, pz}
			if seen[key] {
				t.Fatalf("%s: duplicate tile for rank %d", scheme, r)
			}
			seen[key] = true
		}
	}
}

func TestBoundsCoverGrid(t *testing.T) {
	g := NewGrid(10, 6, 4)
	d, err := mesh.NewDist(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]int, g.NumPoints())
	for r := 0; r < 6; r++ {
		lo, hi := d.Bounds(r)
		for k := lo[2]; k < hi[2]; k++ {
			for j := lo[1]; j < hi[1]; j++ {
				for i := lo[0]; i < hi[0]; i++ {
					owned[g.PointIndex(i, j, k)]++
				}
			}
		}
	}
	for id, c := range owned {
		if c != 1 {
			t.Fatalf("point %d owned %d times", id, c)
		}
	}
}

// OwnerOfPoint reads per-axis tables built once per Dist; they must agree
// with mesh.BlockOwner at every index, also where the extents do not divide.
func TestOwnerTablesMatchBlockOwner(t *testing.T) {
	g := NewGrid(13, 10, 7)
	plain, err := mesh.NewDist(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := NewDistOrdered(g, 12, sfc.SchemeHilbert)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*mesh.Dist{plain, ordered} {
		if g.Nx%d.Px == 0 || g.Nz%d.Pz == 0 || d.Py == 1 {
			t.Fatalf("%dx%dx%d processor grid divides the extents; pick another grid", d.Px, d.Py, d.Pz)
		}
		for k := -g.Nz; k < 2*g.Nz; k++ {
			for j := -g.Ny; j < 2*g.Ny; j++ {
				for i := -g.Nx; i < 2*g.Nx; i++ {
					want := d.RankAt(
						mesh.BlockOwner(g.Nx, d.Px, (i+g.Nx)%g.Nx),
						mesh.BlockOwner(g.Ny, d.Py, (j+g.Ny)%g.Ny),
						mesh.BlockOwner(g.Nz, d.Pz, (k+g.Nz)%g.Nz))
					if got := d.OwnerOfPoint(i, j, k); got != want {
						t.Fatalf("OwnerOfPoint(%d,%d,%d) = %d, want %d", i, j, k, got, want)
					}
				}
			}
		}
	}
}
