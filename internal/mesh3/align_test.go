package mesh3

import (
	"fmt"
	"testing"

	"picpar/internal/mesh"
	"picpar/internal/sfc"
)

// curveNumbered is the numbering NewDistOrdered improves on: the most
// cube-like processor grid, its tiles numbered along the scheme's curve
// over the processor grid.
func curveNumbered(t *testing.T, g mesh.Grid, p int, scheme string) *mesh.Dist {
	t.Helper()
	d, err := mesh.NewDist(g, p)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sfc.New3(scheme, d.Px, d.Py, d.Pz)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Renumber(ix.Index); err != nil {
		t.Fatal(err)
	}
	return d
}

// alignedShare is the fraction of cells whose lower-corner point rank r
// owns, where r is the key P-th ⌊k·P/cells⌋ of the cell's curve key k.
func alignedShare(d *mesh.Dist, cells sfc.Indexer) float64 {
	g := d.G
	n := g.Nx * g.Ny * g.Nz
	aligned := 0
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				if d.OwnerOfPoint(x, y, z) == cells.Index(x, y, z)*d.P/n {
					aligned++
				}
			}
		}
	}
	return float64(aligned) / float64(n)
}

// TestNewDistOrderedAlignsCurvePths: over cubes, slabs and extents that do
// not divide, NewDistOrdered's tiles hold at least as many cells of their
// own rank's key P-th as the curve-numbered processor grid's — all of them
// wherever the cell curve's P-ths are blocks of the most cube-like shape —
// and it is the curve-numbered Dist itself where that was fully aligned.
func TestNewDistOrderedAlignsCurvePths(t *testing.T) {
	type shape struct {
		g  mesh.Grid
		ps []int
	}
	shapes := []shape{
		{mesh.NewGrid3(16, 16, 16), []int{2, 4, 8, 16, 32, 64}},
		{mesh.NewGrid3(32, 32, 32), []int{2, 4, 8, 16, 32, 64}},
		{mesh.NewGrid3(32, 16, 16), []int{4, 8}},
		{mesh.NewGrid3(64, 32, 16), []int{8}},
		{mesh.NewGrid3(24, 24, 24), []int{8}},
		{mesh.NewGrid3(12, 12, 12), []int{6}},
		{mesh.NewGrid3(20, 12, 8), []int{4}},
	}
	pow2Cube := func(g mesh.Grid) bool { return g.Nx == g.Ny && g.Ny == g.Nz && g.Nx&(g.Nx-1) == 0 }
	full := func(g mesh.Grid, p int, scheme string) bool {
		cube := pow2Cube(g)
		switch scheme {
		case sfc.SchemeMorton:
			return cube
		case sfc.SchemeHilbert:
			return cube && (p == 2 || p == 4 || p == 8 || p == 64) ||
				g == mesh.NewGrid3(32, 16, 16)
		}
		return false
	}
	for _, sh := range shapes {
		for _, p := range sh.ps {
			for _, scheme := range []string{sfc.SchemeHilbert, sfc.SchemeSnake, sfc.SchemeMorton} {
				g := sh.g
				name := fmt.Sprintf("%dx%dx%d/P%d/%s", g.Nx, g.Ny, g.Nz, p, scheme)
				d, err := NewDistOrdered(g, p, scheme)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cells, err := sfc.New3(scheme, g.Nx, g.Ny, g.Nz)
				if err != nil {
					t.Fatal(err)
				}
				old := curveNumbered(t, g, p, scheme)
				got, was := alignedShare(d, cells), alignedShare(old, cells)
				t.Logf("%-24s %dx%dx%d -> %dx%dx%d  aligned %.4f -> %.4f", name,
					old.Px, old.Py, old.Pz, d.Px, d.Py, d.Pz, was, got)
				if got < was {
					t.Errorf("%s: aligned share %.4f, below the curve numbering's %.4f", name, got, was)
				}
				if full(g, p, scheme) && got != 1 {
					t.Errorf("%s: aligned share %.4f, want 1", name, got)
				}
				if scheme == sfc.SchemeHilbert && pow2Cube(g) && (p == 8 || p == 64) {
					d.Cells = nil
					if fmt.Sprint(*d) != fmt.Sprint(*old) {
						t.Errorf("%s: %+v, want the curve-numbered %+v", name, *d, *old)
					}
				}
			}
		}
	}
}

// TestMeshDistOrdered2DAligned: in 2-D the processor-grid curve already
// puts every cell of the benchmark's meshes on its own rank's tile, which
// is why internal/mesh keeps numbering tiles that way.
func TestMeshDistOrdered2DAligned(t *testing.T) {
	const p = 4
	for _, g := range []mesh.Grid{mesh.NewGrid(256, 128), mesh.NewGrid(128, 64), mesh.NewGrid(64, 32)} {
		d, err := mesh.NewDistOrdered(g, p, sfc.SchemeHilbert)
		if err != nil {
			t.Fatal(err)
		}
		cells := sfc.MustNew(sfc.SchemeHilbert, g.Nx, g.Ny)
		n := g.Nx * g.Ny
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				if want := cells.Index(x, y, 0) * p / n; d.OwnerOfPoint(x, y, 0) != want {
					t.Fatalf("%dx%d: cell (%d,%d) of P-th %d lies on rank %d's tile", g.Nx, g.Ny, x, y, want, d.OwnerOfPoint(x, y, 0))
				}
			}
		}
	}
}
