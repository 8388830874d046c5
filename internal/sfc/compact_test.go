package sfc

import (
	"math/bits"
	"testing"
)

// TestSnakeSharedFormulaMatchesClosedForm pins the shared boustrophedon
// formula to the closed-form 2-D definition the paper describes, across odd
// and even extents.
func TestSnakeSharedFormulaMatchesClosedForm(t *testing.T) {
	for _, wh := range [][2]int{{1, 1}, {4, 4}, {5, 3}, {8, 7}, {3, 8}} {
		w, h := wh[0], wh[1]
		s := MustNew(SchemeSnake, w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				want := y*w + x
				if y%2 == 1 {
					want = y*w + (w - 1 - x)
				}
				if got := s.Index(x, y, 0); got != want {
					t.Fatalf("snake %dx%d: Index(%d,%d)=%d want %d", w, h, x, y, got, want)
				}
				gx, gy, gz := s.Coords(s.Index(x, y, 0))
				if gx != x || gy != y || gz != 0 {
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
		s2 := MustNew(SchemeSnake, w, h)
		s3 := mustNew3(SchemeSnake, w, h, 1)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if s2.Index(x, y, 0) != s3.Index(x, y, 0) {
					t.Fatalf("%dx%d: snake2(%d,%d)=%d snake3=%d", w, h, x, y, s2.Index(x, y, 0), s3.Index(x, y, 0))
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
			return ix.Index(cell%13, cell/13, 0)
		})
		for cell := 0; cell < 13*6; cell++ {
			x, y, z := ix.Coords(ix.Index(cell%13, cell/13, 0))
			if x != cell%13 || y != cell/13 || z != 0 {
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
	side := sideForGrid(w, h, 1)
	next := 0
	for d := 0; d < side*side; d++ {
		x, y := hilbertD2XY(side, d)
		if x >= w || y >= h {
			continue
		}
		if got := ix.Index(x, y, 0); got != next {
			t.Fatalf("compacted hilbert: Index(%d,%d)=%d want %d", x, y, got, next)
		}
		next++
	}
	if next != w*h {
		t.Fatalf("walked %d cells, want %d", next, w*h)
	}
}

// N-dimensional Hilbert indexing (Skilling's transpose algorithm,
// "Programming the Hilbert curve", AIP Conf. Proc. 707, 2004), general in
// the number of axes: the reference decode the 3-D tables are pinned to
// (hilbertAxes3 is its three-axis unrolling), and the 2-D tests pin it
// against the quadrant-rotation curve in hilbert.go.

// HilbertAxesToIndex maps a point X (one coordinate per dimension, each in
// [0, 2^bits)) to its scalar Hilbert index. X is not modified.
func HilbertAxesToIndex(x []uint32, bitCount int) uint64 {
	n := len(x)
	X := append([]uint32(nil), x...)
	axesToTranspose(X, bitCount)
	// Interleave: bit b of dimension i goes to position (bits-1-b)*n + i
	// counting from the most significant end.
	var idx uint64
	for b := bitCount - 1; b >= 0; b-- {
		for i := 0; i < n; i++ {
			idx = idx<<1 | uint64((X[i]>>uint(b))&1)
		}
	}
	return idx
}

// HilbertIndexToAxes inverts HilbertAxesToIndex, filling x with the point's
// coordinates.
func HilbertIndexToAxes(idx uint64, bitCount int, x []uint32) {
	n := len(x)
	for i := range x {
		x[i] = 0
	}
	pos := bitCount*n - 1
	for b := bitCount - 1; b >= 0; b-- {
		for i := 0; i < n; i++ {
			bit := uint32(idx>>uint(pos)) & 1
			x[i] |= bit << uint(b)
			pos--
		}
	}
	transposeToAxes(x, bitCount)
}

// axesToTranspose converts coordinates into Skilling's "transpose" Hilbert
// representation, in place.
func axesToTranspose(X []uint32, b int) {
	n := len(X)
	M := uint32(1) << uint(b-1)
	// Inverse undo.
	for Q := M; Q > 1; Q >>= 1 {
		P := Q - 1
		for i := 0; i < n; i++ {
			if X[i]&Q != 0 {
				X[0] ^= P // invert
			} else { // exchange
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		X[i] ^= X[i-1]
	}
	t := uint32(0)
	for Q := M; Q > 1; Q >>= 1 {
		if X[n-1]&Q != 0 {
			t ^= Q - 1
		}
	}
	for i := 0; i < n; i++ {
		X[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose, in place.
func transposeToAxes(X []uint32, b int) {
	n := len(X)
	N := uint32(2) << uint(b-1)
	// Gray decode by H ^ (H/2).
	t := X[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		X[i] ^= X[i-1]
	}
	X[0] ^= t
	// Undo excess work.
	for Q := uint32(2); Q != N; Q <<= 1 {
		P := Q - 1
		for i := n - 1; i >= 0; i-- {
			if X[i]&Q != 0 {
				X[0] ^= P
			} else {
				tt := (X[0] ^ X[i]) & P
				X[0] ^= tt
				X[i] ^= tt
			}
		}
	}
}

// referenceCurve decodes every rank of the dims-dimensional scheme curve
// over a cube of side 2^bitCount, one rank at a time: Skilling's n-D decode
// for Hilbert (quadrant rotation in 2-D), a bit-by-bit de-interleave for
// Morton. It returns the cells' coordinates in rank order.
func referenceCurve(scheme string, dims, bitCount int) [][3]int {
	total := 1 << (dims * bitCount)
	out := make([][3]int, total)
	ax := make([]uint32, dims)
	for rank := range out {
		switch {
		case scheme == SchemeMorton:
			for b := 0; b < dims*bitCount; b++ {
				out[rank][b%dims] |= (rank >> b & 1) << (b / dims)
			}
		case dims == 2:
			out[rank][0], out[rank][1] = hilbertD2XY(1<<bitCount, rank)
		default:
			HilbertIndexToAxes(uint64(rank), max(bitCount, 1), ax)
			for i, v := range ax {
				out[rank][i] = int(v)
			}
		}
	}
	return out
}

// TestCompactTablesMatchReferenceDecode pins the pruned, inline-decoded
// table walk bit for bit to the rank-by-rank reference decode: for every box
// up to 17×17×17 and every rectangle up to 40×40, plus 32³, 64×32×16 and
// 256×128, for Hilbert and Morton, the compact index of every cell is its
// position among the box's cells in the reference curve's rank order.
func TestCompactTablesMatchReferenceDecode(t *testing.T) {
	type box struct{ w, h, d int }
	var boxes2, boxes3 []box
	for w := 1; w <= 40; w++ {
		for h := 1; h <= 40; h++ {
			boxes2 = append(boxes2, box{w, h, 1})
		}
	}
	boxes2 = append(boxes2, box{256, 128, 1})
	for w := 1; w <= 17; w++ {
		for h := 1; h <= 17; h++ {
			for d := 1; d <= 17; d++ {
				boxes3 = append(boxes3, box{w, h, d})
			}
		}
	}
	boxes3 = append(boxes3, box{32, 32, 32}, box{64, 32, 16})
	for _, scheme := range []string{SchemeHilbert, SchemeMorton} {
		curves := map[int][][3]int{} // by dims·100 + bitCount
		check := func(dims int, b box, index func(x, y, z int) int) {
			bitCount := bits.Len(uint(max(b.w, b.h, b.d) - 1))
			curve := curves[dims*100+bitCount]
			if curve == nil {
				curve = referenceCurve(scheme, dims, bitCount)
				curves[dims*100+bitCount] = curve
			}
			next := 0
			for _, c := range curve {
				if c[0] >= b.w || c[1] >= b.h || c[2] >= b.d {
					continue
				}
				if got := index(c[0], c[1], c[2]); got != next {
					t.Fatalf("%s %d-D %dx%dx%d: cell %v has index %d, reference %d",
						scheme, dims, b.w, b.h, b.d, c, got, next)
				}
				next++
			}
			if next != b.w*b.h*b.d {
				t.Fatalf("%s %d-D %v: reference walk reached %d cells", scheme, dims, b, next)
			}
		}
		for _, b := range boxes2 {
			ix := MustNew(scheme, b.w, b.h)
			check(2, b, ix.Index)
		}
		for _, b := range boxes3 {
			ix := mustNew3(scheme, b.w, b.h, b.d)
			check(3, b, ix.Index)
		}
	}
}
