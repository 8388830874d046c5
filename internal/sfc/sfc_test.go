package sfc

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

var allSchemes = []string{SchemeHilbert, SchemeSnake, SchemeRowMajor, SchemeMorton}

var testGrids = [][2]int{
	{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}, {64, 64},
	{8, 4}, {4, 8}, {128, 64}, {16, 3}, {3, 16}, {5, 7}, {1, 9},
}

func TestIndexerBijection(t *testing.T) {
	for _, scheme := range allSchemes {
		for _, g := range testGrids {
			w, h := g[0], g[1]
			ix, err := New(scheme, w, h)
			if err != nil {
				t.Fatalf("New(%s, %d, %d): %v", scheme, w, h, err)
			}
			seen := make([]bool, w*h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					idx := ix.Index(x, y, 0)
					if idx < 0 || idx >= w*h {
						t.Fatalf("%s %dx%d: Index(%d,%d) = %d out of range", scheme, w, h, x, y, idx)
					}
					if seen[idx] {
						t.Fatalf("%s %dx%d: index %d assigned twice", scheme, w, h, idx)
					}
					seen[idx] = true
					rx, ry, rz := ix.Coords(idx)
					if rx != x || ry != y || rz != 0 {
						t.Fatalf("%s %dx%d: Coords(Index(%d,%d)) = (%d,%d,%d)", scheme, w, h, x, y, rx, ry, rz)
					}
				}
			}
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining property: consecutive Hilbert indices on a power-of-two
	// square are 4-neighbour adjacent cells.
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		px, py := hilbertD2XY(n, 0)
		for d := 1; d < n*n; d++ {
			x, y := hilbertD2XY(n, d)
			dist := abs(x-px) + abs(y-py)
			if dist != 1 {
				t.Fatalf("n=%d: cells at d=%d,%d are (%d,%d),(%d,%d): manhattan %d, want 1",
					n, d-1, d, px, py, x, y, dist)
			}
			px, py = x, y
		}
	}
}

func TestSnakeAdjacency(t *testing.T) {
	// Snake order is also a Hamiltonian path on the grid graph.
	for _, g := range testGrids {
		w, h := g[0], g[1]
		if w*h == 1 {
			continue
		}
		s := MustNew(SchemeSnake, w, h)
		px, py, _ := s.Coords(0)
		for d := 1; d < w*h; d++ {
			x, y, _ := s.Coords(d)
			if abs(x-px)+abs(y-py) != 1 {
				t.Fatalf("snake %dx%d: jump between d=%d and d=%d", w, h, d-1, d)
			}
			px, py = x, y
		}
	}
}

func TestHilbertXY2DRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(9)) // 2..512
		x, y := rng.Intn(n), rng.Intn(n)
		d := HilbertXY2D(n, x, y)
		rx, ry := hilbertD2XY(n, d)
		return rx == x && ry == y && d >= 0 && d < n*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHilbertMatchesTableImplementation(t *testing.T) {
	// For square power-of-two grids the compacted-table indexer must agree
	// with the direct bit-twiddling functions.
	for _, n := range []int{2, 4, 16, 64} {
		hx, err := New(SchemeHilbert, n, n)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if got, want := hx.Index(x, y, 0), HilbertXY2D(n, x, y); got != want {
					t.Fatalf("n=%d (%d,%d): table %d != direct %d", n, x, y, got, want)
				}
			}
		}
	}
}

func TestHilbertRectCompactionPreservesOrder(t *testing.T) {
	// Compacted rectangle indices must be ordered consistently with the
	// enclosing square's curve ranks.
	w, h := 12, 5
	hx, err := New(SchemeHilbert, w, h)
	if err != nil {
		t.Fatal(err)
	}
	side := sideForGrid(w, h, 1)
	type cell struct{ rank, idx int }
	var cells []cell
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cells = append(cells, cell{HilbertXY2D(side, x, y), hx.Index(x, y, 0)})
		}
	}
	for i := range cells {
		for j := range cells {
			if (cells[i].rank < cells[j].rank) != (cells[i].idx < cells[j].idx) && cells[i].rank != cells[j].rank {
				t.Fatalf("compaction broke order: ranks %d,%d idx %d,%d",
					cells[i].rank, cells[j].rank, cells[i].idx, cells[j].idx)
			}
		}
	}
}

func TestMortonRoundTrip(t *testing.T) {
	f := func(x, y uint16) bool {
		d := MortonXY2D(int(x), int(y))
		rx, ry, _ := mortonAxes2(d, 0)
		return rx == int(x) && ry == int(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNDHilbertMatches2D(t *testing.T) {
	// Skilling's n-D algorithm restricted to 2-D must produce a curve with
	// the same locality structure; we require exact agreement up to the
	// standard orientation, so compare via round-trip + adjacency + span.
	const b = 5 // 32x32
	n := 1 << b
	seen := make(map[uint64]bool)
	var px, py uint32
	for d := uint64(0); d < uint64(n*n); d++ {
		x := make([]uint32, 2)
		HilbertIndexToAxes(d, b, x)
		if x[0] >= uint32(n) || x[1] >= uint32(n) {
			t.Fatalf("d=%d out of range coords %v", d, x)
		}
		if back := HilbertAxesToIndex(x, b); back != d {
			t.Fatalf("round trip failed: d=%d coords=%v back=%d", d, x, back)
		}
		if seen[uint64(x[0])<<32|uint64(x[1])] {
			t.Fatalf("duplicate coords at d=%d: %v", d, x)
		}
		seen[uint64(x[0])<<32|uint64(x[1])] = true
		if d > 0 {
			dist := absU(x[0], px) + absU(x[1], py)
			if dist != 1 {
				t.Fatalf("nd curve not adjacent at d=%d: (%d,%d)->(%d,%d)", d, px, py, x[0], x[1])
			}
		}
		px, py = x[0], x[1]
	}
}

func TestNDHilbert3D(t *testing.T) {
	const b = 3 // 8x8x8
	n := 1 << b
	total := uint64(n * n * n)
	var prev [3]uint32
	for d := uint64(0); d < total; d++ {
		x := make([]uint32, 3)
		HilbertIndexToAxes(d, b, x)
		if back := HilbertAxesToIndex(x, b); back != d {
			t.Fatalf("3d round trip failed at d=%d", d)
		}
		if d > 0 {
			dist := absU(x[0], prev[0]) + absU(x[1], prev[1]) + absU(x[2], prev[2])
			if dist != 1 {
				t.Fatalf("3d curve not adjacent at d=%d", d)
			}
		}
		copy(prev[:], x)
	}
}

func TestLocalityHilbertBeatsSnake(t *testing.T) {
	// Quantify the paper's Section 5.1 claim: for a contiguous index range
	// (one processor's share), the Hilbert subdomain has a smaller bounding
	// box perimeter than the snake subdomain (high aspect-ratio strips).
	const n = 64
	const ranks = 16
	share := n * n / ranks
	hil := MustNew(SchemeHilbert, n, n)
	snk := MustNew(SchemeSnake, n, n)
	perim := func(ix Indexer, lo, hi int) int {
		minX, minY, maxX, maxY := n, n, -1, -1
		for d := lo; d < hi; d++ {
			x, y, _ := ix.Coords(d)
			if x < minX {
				minX = x
			}
			if y < minY {
				minY = y
			}
			if x > maxX {
				maxX = x
			}
			if y > maxY {
				maxY = y
			}
		}
		return 2 * ((maxX - minX + 1) + (maxY - minY + 1))
	}
	hTot, sTot := 0, 0
	for r := 0; r < ranks; r++ {
		hTot += perim(hil, r*share, (r+1)*share)
		sTot += perim(snk, r*share, (r+1)*share)
	}
	if hTot >= sTot {
		t.Errorf("hilbert total perimeter %d should beat snake %d", hTot, sTot)
	}
}

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New(SchemeHilbert, 0, 4); err == nil {
		t.Error("expected error for zero width")
	}
	if _, err := New("zigzag", 4, 4); err == nil {
		t.Error("expected error for unknown scheme")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on error")
		}
	}()
	MustNew("zigzag", 4, 4)
}

func TestSideForGrid(t *testing.T) {
	cases := []struct{ w, h, want int }{
		{1, 1, 1}, {2, 2, 2}, {3, 2, 4}, {128, 64, 128}, {129, 1, 256}, {512, 256, 512},
	}
	for _, c := range cases {
		if got := sideForGrid(c.w, c.h, 1); got != c.want {
			t.Errorf("sideForGrid(%d,%d,1) = %d, want %d", c.w, c.h, got, c.want)
		}
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func absU(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// HilbertXY2D maps cell (x, y) on an n×n grid (n a power of two) to its
// distance along the Hilbert curve: the encoder that hilbertD2XY inverts,
// kept as its test oracle.
func HilbertXY2D(n, x, y int) int {
	d := 0
	for s := n / 2; s > 0; s /= 2 {
		rx, ry := 0, 0
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		x, y = hilbertRot(s, x, y, rx, ry)
	}
	return d
}

// MortonXY2D interleaves the bits of x and y (x in the even positions):
// the encoder that mortonAxes2 inverts, kept as its test oracle. The rank
// is a uint64, as the decoder takes it: 16-bit x and y fill 32 bits, which
// overflow a 32-bit int.
func MortonXY2D(x, y int) uint64 {
	return spreadBits(uint64(x)) | spreadBits(uint64(y))<<1
}

// hilbertD2XY maps distance d along the Hilbert curve of an n×n grid (n a
// power of two) to cell coordinates.
func hilbertD2XY(n, d int) (x, y int) {
	x, y, _ = hilbertAxes2(uint64(d), bits.Len(uint(n-1)))
	return x, y
}

// spreadBits inserts a zero between each of the low 32 bits of v; compactBits
// inverts it.
func spreadBits(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}
