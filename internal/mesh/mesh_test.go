package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid(128, 64)
	if g.NumPoints() != 128*64 {
		t.Errorf("NumPoints = %d", g.NumPoints())
	}
	if g.Dx() != 1 || g.Dy() != 1 {
		t.Errorf("unit cells expected, got %g, %g", g.Dx(), g.Dy())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := (&Grid{Nx: 0, Ny: 4, Nz: 1, Lx: 1, Ly: 1, Lz: 1}).Validate(); err == nil {
		t.Error("expected validate failure for zero extent")
	}
	if err := (&Grid{Nx: 4, Ny: 4, Nz: 1, Lx: 0, Ly: 1, Lz: 1}).Validate(); err == nil {
		t.Error("expected validate failure for zero size")
	}
}

func TestPointIndexWrap(t *testing.T) {
	g := NewGrid(8, 4)
	if g.PointIndex(0, 0, 0) != 0 {
		t.Error("origin index")
	}
	if g.PointIndex(8, 0, 0) != g.PointIndex(0, 0, 0) {
		t.Error("x wrap failed")
	}
	if g.PointIndex(-1, 0, 0) != g.PointIndex(7, 0, 0) {
		t.Error("negative x wrap failed")
	}
	if g.PointIndex(3, 4, 0) != g.PointIndex(3, 0, 0) {
		t.Error("y wrap failed")
	}
	if g.PointIndex(3, -1, 0) != g.PointIndex(3, 3, 0) {
		t.Error("negative y wrap failed")
	}
}

func TestPointIndexRoundTrip(t *testing.T) {
	g := NewGrid(13, 7)
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			id := g.PointIndex(i, j, 0)
			ri, rj, rk := g.PointCoords(id)
			if ri != i || rj != j || rk != 0 {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", i, j, id, ri, rj)
			}
		}
	}
}

func TestCellOf(t *testing.T) {
	g := NewGrid(8, 8)
	cases := []struct {
		x, y   float64
		cx, cy int
	}{
		{0.5, 0.5, 0, 0},
		{7.999, 7.999, 7, 7},
		{8.0, 0.0, 0, 0},   // wraps
		{-0.25, 0.0, 7, 0}, // wraps negative
		{3.0, 5.5, 3, 5},   // exact boundary belongs to upper cell
	}
	for _, c := range cases {
		cx, cy, cz := g.CellOf(c.x, c.y, 0)
		if cx != c.cx || cy != c.cy || cz != 0 {
			t.Errorf("CellOf(%g,%g) = (%d,%d), want (%d,%d)", c.x, c.y, cx, cy, c.cx, c.cy)
		}
	}
}

func TestCellOfAlwaysInRange(t *testing.T) {
	g := NewGrid(16, 8)
	f := func(x, y float64) bool {
		if x != x || y != y || x > 1e12 || x < -1e12 || y > 1e12 || y < -1e12 {
			return true // skip NaN/huge (wrapF is a loop)
		}
		cx, cy, cz := g.CellOf(x, y, 0)
		return cx >= 0 && cx < g.Nx && cy >= 0 && cy < g.Ny && cz == 0
	}
	cfg := &quick.Config{MaxCount: 2000, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBlockRangeCoversExactly(t *testing.T) {
	for _, n := range []int{1, 7, 10, 64, 127} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			if p > n {
				continue
			}
			prevHi := 0
			for k := 0; k < p; k++ {
				lo, hi := BlockRange(n, p, k)
				if lo != prevHi {
					t.Fatalf("n=%d p=%d k=%d: gap/overlap lo=%d prev=%d", n, p, k, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d p=%d k=%d: negative range", n, p, k)
				}
				// Balanced: sizes differ by at most 1.
				if sz := hi - lo; sz < n/p || sz > n/p+1 {
					t.Fatalf("n=%d p=%d k=%d: unbalanced size %d", n, p, k, sz)
				}
				prevHi = hi
			}
			if prevHi != n {
				t.Fatalf("n=%d p=%d: ranges end at %d", n, p, prevHi)
			}
		}
	}
}

func TestBlockOwnerInvertsBlockRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		p := 1 + rng.Intn(n)
		i := rng.Intn(n)
		k := BlockOwner(n, p, i)
		lo, hi := BlockRange(n, p, k)
		return lo <= i && i < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestNewDistFactorisation(t *testing.T) {
	// 128x64 over 32 ranks should pick 8x4 (16x16 square blocks).
	d, err := NewDist(NewGrid(128, 64), 32)
	if err != nil {
		t.Fatal(err)
	}
	if d.Px != 8 || d.Py != 4 {
		t.Errorf("got %dx%d processor grid, want 8x4", d.Px, d.Py)
	}
	// Square mesh over square rank count: square processor grid.
	d2, err := NewDist(NewGrid(64, 64), 16)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Px != 4 || d2.Py != 4 {
		t.Errorf("got %dx%d, want 4x4", d2.Px, d2.Py)
	}
}

func TestNewDistErrors(t *testing.T) {
	if _, err := NewDist(NewGrid(2, 2), 0); err == nil {
		t.Error("expected error for p=0")
	}
	if _, err := NewDist(NewGrid(2, 2), 64); err == nil {
		t.Error("expected error when no factorisation fits")
	}
	if _, err := NewDist1D(NewGrid(8, 4), 8); err == nil {
		t.Error("expected error: 8 ranks over 4 rows")
	}
}

func TestDistBoundsPartitionTheGrid(t *testing.T) {
	grids := []Grid{NewGrid(128, 64), NewGrid(17, 13), NewGrid(64, 64)}
	for _, g := range grids {
		for _, p := range []int{1, 2, 4, 6, 8, 13} {
			d, err := NewDist(g, p)
			if err != nil {
				continue
			}
			owned := make([]int, g.NumPoints())
			for r := 0; r < p; r++ {
				lo, hi := d.Bounds(r)
				for j := lo[1]; j < hi[1]; j++ {
					for i := lo[0]; i < hi[0]; i++ {
						owned[g.PointIndex(i, j, 0)]++
						if got := d.OwnerOfPoint(i, j, 0); got != r {
							t.Fatalf("%v p=%d: OwnerOfPoint(%d,%d) = %d, want %d", g, p, i, j, got, r)
						}
					}
				}
			}
			for id, c := range owned {
				if c != 1 {
					t.Fatalf("%v p=%d: point %d owned %d times", g, p, id, c)
				}
			}
		}
	}
}

func TestDist1D(t *testing.T) {
	d, err := NewDist1D(NewGrid(16, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Px != 1 || d.Py != 4 {
		t.Fatalf("1-D dist got %dx%d", d.Px, d.Py)
	}
	if lo, hi := d.Bounds(2); lo != [3]int{0, 4, 0} || hi != [3]int{16, 6, 1} {
		t.Errorf("rank 2 bounds %v, %v", lo, hi)
	}
}

func TestNeighboursPeriodic(t *testing.T) {
	d, err := NewDist(NewGrid(16, 16), 16) // 4x4 processor grid
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 is at (0,0): left wraps to (3,0)=3, down wraps to (0,3)=12.
	if nbr := d.Neighbours(0); nbr != [3][2]int{{3, 1}, {12, 4}, {0, 0}} {
		t.Errorf("neighbours of 0: %v", nbr)
	}
}

func TestWrapPosition(t *testing.T) {
	g := NewGrid(4, 4)
	x, y, z := g.WrapPosition(-0.5, 4.5, 0)
	if x != 3.5 || y != 0.5 || z != 0 {
		t.Errorf("WrapPosition = (%g,%g), want (3.5,0.5)", x, y)
	}
}

// OwnerOfPoint reads per-axis tables built once per Dist; they must agree
// with BlockOwner at every index, also where the extents do not divide.
func TestOwnerTablesMatchBlockOwner(t *testing.T) {
	g := NewGrid(50, 22)
	plain, err := NewDist(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Px != 3 || plain.Py != 2 {
		t.Fatalf("got %dx%d processor grid, want 3x2", plain.Px, plain.Py)
	}
	ordered, err := NewDistOrdered(g, 6, "hilbert")
	if err != nil {
		t.Fatal(err)
	}
	oneD, err := NewDist1D(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dist{plain, ordered, oneD} {
		for j := -g.Ny; j < 2*g.Ny; j++ {
			for i := -g.Nx; i < 2*g.Nx; i++ {
				want := d.RankAt(BlockOwner(g.Nx, d.Px, wrap(i, g.Nx)), BlockOwner(g.Ny, d.Py, wrap(j, g.Ny)), 0)
				if got := d.OwnerOfPoint(i, j, 0); got != want {
					t.Fatalf("%v: OwnerOfPoint(%d,%d) = %d, want %d", d, i, j, got, want)
				}
			}
		}
	}
}
