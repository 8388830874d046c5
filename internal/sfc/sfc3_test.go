package sfc

import "testing"

var testBoxes = [][3]int{
	{1, 1, 1}, {2, 2, 2}, {4, 4, 4}, {8, 8, 8},
	{4, 2, 8}, {5, 3, 7}, {16, 8, 4}, {3, 1, 2},
}

func TestIndexer3Bijection(t *testing.T) {
	for _, scheme := range allSchemes {
		for _, b := range testBoxes {
			w, h, d := b[0], b[1], b[2]
			ix, err := New3(scheme, w, h, d)
			if err != nil {
				t.Fatalf("New3(%s, %v): %v", scheme, b, err)
			}
			seen := make([]bool, w*h*d)
			for z := 0; z < d; z++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						idx := ix.Index(x, y, z)
						if idx < 0 || idx >= w*h*d {
							t.Fatalf("%s %v: Index(%d,%d,%d) = %d out of range", scheme, b, x, y, z, idx)
						}
						if seen[idx] {
							t.Fatalf("%s %v: duplicate index %d", scheme, b, idx)
						}
						seen[idx] = true
						rx, ry, rz := ix.Coords(idx)
						if rx != x || ry != y || rz != z {
							t.Fatalf("%s %v: round trip (%d,%d,%d) -> (%d,%d,%d)", scheme, b, x, y, z, rx, ry, rz)
						}
					}
				}
			}
		}
	}
}

func TestHilbert3Adjacency(t *testing.T) {
	// On a power-of-two cube, consecutive compacted-Hilbert indices are
	// 6-neighbour adjacent cells.
	ix := mustNew3(SchemeHilbert, 8, 8, 8)
	px, py, pz := ix.Coords(0)
	for idx := 1; idx < 8*8*8; idx++ {
		x, y, z := ix.Coords(idx)
		if abs(x-px)+abs(y-py)+abs(z-pz) != 1 {
			t.Fatalf("jump at idx %d: (%d,%d,%d)->(%d,%d,%d)", idx, px, py, pz, x, y, z)
		}
		px, py, pz = x, y, z
	}
}

func TestSnake3Adjacency(t *testing.T) {
	for _, b := range testBoxes {
		w, h, d := b[0], b[1], b[2]
		if w*h*d == 1 {
			continue
		}
		s := mustNew3(SchemeSnake, w, h, d)
		px, py, pz := s.Coords(0)
		for idx := 1; idx < w*h*d; idx++ {
			x, y, z := s.Coords(idx)
			if abs(x-px)+abs(y-py)+abs(z-pz) != 1 {
				t.Fatalf("snake3 %v: jump at idx %d", b, idx)
			}
			px, py, pz = x, y, z
		}
	}
}

func TestLocality3HilbertBeatsSnake(t *testing.T) {
	// Bounding-box surface area of equal contiguous index chunks: Hilbert
	// chunks are blocky, snake chunks are long slabs.
	const n = 16
	const ranks = 16
	share := n * n * n / ranks
	hil := mustNew3(SchemeHilbert, n, n, n)
	snk := mustNew3(SchemeSnake, n, n, n)
	surface := func(ix Indexer, lo, hi int) int {
		minX, minY, minZ := n, n, n
		maxX, maxY, maxZ := -1, -1, -1
		for i := lo; i < hi; i++ {
			x, y, z := ix.Coords(i)
			minX, maxX = min(minX, x), max(maxX, x)
			minY, maxY = min(minY, y), max(maxY, y)
			minZ, maxZ = min(minZ, z), max(maxZ, z)
		}
		dx, dy, dz := maxX-minX+1, maxY-minY+1, maxZ-minZ+1
		return 2 * (dx*dy + dy*dz + dx*dz)
	}
	hTot, sTot := 0, 0
	for r := 0; r < ranks; r++ {
		hTot += surface(hil, r*share, (r+1)*share)
		sTot += surface(snk, r*share, (r+1)*share)
	}
	if hTot >= sTot {
		t.Errorf("hilbert surface %d should beat snake %d", hTot, sTot)
	}
}

func TestMorton3RoundTripViaTables(t *testing.T) {
	ix := mustNew3(SchemeMorton, 8, 4, 2)
	for idx := 0; idx < 8*4*2; idx++ {
		x, y, z := ix.Coords(idx)
		if ix.Index(x, y, z) != idx {
			t.Fatalf("morton3 round trip failed at %d", idx)
		}
	}
}

func TestCompact3Bits(t *testing.T) {
	// Interleave by hand: x bits at positions 0,3,6...
	v := uint64(0)
	x := uint64(0b1011)
	for b := 0; b < 4; b++ {
		v |= (x >> uint(b) & 1) << uint(3*b)
	}
	if got := compact3Bits(v); got != x {
		t.Errorf("compact3Bits = %b, want %b", got, x)
	}
}

func TestNew3Rejects(t *testing.T) {
	if _, err := New3(SchemeHilbert, 0, 1, 1); err == nil {
		t.Error("expected error for zero extent")
	}
	if _, err := New3("spiral", 2, 2, 2); err == nil {
		t.Error("expected error for unknown scheme")
	}
}

// mustNew3 is New3 for known-good arguments; it panics on error.
func mustNew3(scheme string, w, h, d int) Indexer {
	ix, err := New3(scheme, w, h, d)
	if err != nil {
		panic(err)
	}
	return ix
}
