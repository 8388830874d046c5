package sfc

import "testing"

// TestSnakeSharedFormulaMatchesClosedForm pins the shared boustrophedon
// formula to the closed-form 2-D definition the paper describes, across odd
// and even extents.
func TestSnakeSharedFormulaMatchesClosedForm(t *testing.T) {
	for _, wh := range [][2]int{{1, 1}, {4, 4}, {5, 3}, {8, 7}, {3, 8}} {
		w, h := wh[0], wh[1]
		s := Snake{W: w, H: h}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				want := y*w + x
				if y%2 == 1 {
					want = y*w + (w - 1 - x)
				}
				if got := s.Index(x, y); got != want {
					t.Fatalf("snake %dx%d: Index(%d,%d)=%d want %d", w, h, x, y, got, want)
				}
				gx, gy := s.Coords(s.Index(x, y))
				if gx != x || gy != y {
					t.Fatalf("snake %dx%d: Coords round-trip (%d,%d)→(%d,%d)", w, h, x, y, gx, gy)
				}
			}
		}
	}
}

// TestSnake3DegeneratesToSnake2D: with depth 1 (and even H so the plane-seam
// reversal is a no-op) the 3-D snake must coincide with the 2-D snake —
// the cross-dimension property that one shared formula guarantees.
func TestSnake3DegeneratesToSnake2D(t *testing.T) {
	for _, wh := range [][2]int{{4, 4}, {6, 2}, {7, 4}} {
		w, h := wh[0], wh[1]
		s2 := Snake{W: w, H: h}
		s3 := Snake3{W: w, H: h, D: 1}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if s2.Index(x, y) != s3.Index(x, y, 0) {
					t.Fatalf("%dx%d: snake2(%d,%d)=%d snake3=%d", w, h, x, y, s2.Index(x, y), s3.Index(x, y, 0))
				}
			}
		}
	}
}

// bijective checks an index set covers 0..n−1 exactly once.
func bijective(t *testing.T, name string, n int, idx func(cell int) int) {
	t.Helper()
	seen := make([]bool, n)
	for c := 0; c < n; c++ {
		i := idx(c)
		if i < 0 || i >= n {
			t.Fatalf("%s: index %d out of range [0,%d)", name, i, n)
		}
		if seen[i] {
			t.Fatalf("%s: index %d assigned twice", name, i)
		}
		seen[i] = true
	}
}

// TestCompactTablesBijective2D3D: the shared table builder must produce a
// bijection for every scheme in both dimensions, including non-power-of-two
// rectangles/boxes (the compaction case).
func TestCompactTablesBijective2D3D(t *testing.T) {
	for _, scheme := range []string{SchemeHilbert, SchemeMorton} {
		ix := MustNew(scheme, 13, 6)
		bijective(t, scheme+"-2d", 13*6, func(cell int) int {
			return ix.Index(cell%13, cell/13)
		})
		for cell := 0; cell < 13*6; cell++ {
			x, y := ix.Coords(ix.Index(cell%13, cell/13))
			if x != cell%13 || y != cell/13 {
				t.Fatalf("%s-2d: round-trip failed at cell %d", scheme, cell)
			}
		}

		ix3 := mustNew3(scheme, 5, 6, 3)
		bijective(t, scheme+"-3d", 5*6*3, func(cell int) int {
			return ix3.Index(cell%5, (cell/5)%6, cell/30)
		})
		for cell := 0; cell < 5*6*3; cell++ {
			x, y, z := ix3.Coords(ix3.Index(cell%5, (cell/5)%6, cell/30))
			if x != cell%5 || y != (cell/5)%6 || z != cell/30 {
				t.Fatalf("%s-3d: round-trip failed at cell %d", scheme, cell)
			}
		}
	}
}

// TestCompactedHilbert2DMatchesCurveWalk pins the compacted 2-D Hilbert
// table to a direct walk of the quadrant-rotation curve — the table builder
// must not change which curve the 2-D indexer exposes (goldens depend on
// it).
func TestCompactedHilbert2DMatchesCurveWalk(t *testing.T) {
	w, h := 11, 5
	ix := MustNew(SchemeHilbert, w, h)
	side := SideForGrid(w, h)
	next := 0
	for d := 0; d < side*side; d++ {
		x, y := HilbertD2XY(side, d)
		if x >= w || y >= h {
			continue
		}
		if got := ix.Index(x, y); got != next {
			t.Fatalf("compacted hilbert: Index(%d,%d)=%d want %d", x, y, got, next)
		}
		next++
	}
	if next != w*h {
		t.Fatalf("walked %d cells, want %d", next, w*h)
	}
}
