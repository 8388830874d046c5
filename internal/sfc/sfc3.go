package sfc

import "fmt"

// The paper notes that its indexing scheme "can be generalized to
// n-dimensions and used to convert an n-dimensional index into a
// one-dimensional index such that proximity in the n-dimensions is
// generally maintained". This file provides the three-dimensional
// instantiation used by the 3-D partitioning analysis: Hilbert (via
// Skilling's algorithm in nd.go), snakelike, row-major and Morton orders
// over a W×H×D cell box.

// Indexer3 linearises a W×H×D grid of cells; a bijection onto 0..W*H*D−1.
type Indexer3 interface {
	// Index returns the 1-D index of cell (x, y, z).
	Index(x, y, z int) int
	// Coords inverts Index.
	Coords(idx int) (x, y, z int)
	// Size returns the box extents.
	Size() (w, h, d int)
	// Name identifies the scheme.
	Name() string
}

// New3 constructs the named 3-D Indexer for a w×h×d box. Hilbert and
// Morton embed the box in the enclosing power-of-two cube and compact the
// curve ranks, exactly like their 2-D counterparts.
func New3(scheme string, w, h, d int) (Indexer3, error) {
	if w <= 0 || h <= 0 || d <= 0 {
		return nil, fmt.Errorf("sfc: invalid 3-d box %dx%dx%d", w, h, d)
	}
	switch scheme {
	case SchemeHilbert:
		return newCompacted3(w, h, d, curveHilbert3), nil
	case SchemeMorton:
		return newCompacted3(w, h, d, curveMorton3), nil
	case SchemeSnake:
		return Snake3{W: w, H: h, D: d}, nil
	case SchemeRowMajor:
		return RowMajor3{W: w, H: h, D: d}, nil
	default:
		return nil, fmt.Errorf("sfc: unknown scheme %q", scheme)
	}
}

// RowMajor3 orders cells x-fastest, then y, then z.
type RowMajor3 struct{ W, H, D int }

// Index implements Indexer3.
func (r RowMajor3) Index(x, y, z int) int { return (z*r.H+y)*r.W + x }

// Coords implements Indexer3.
func (r RowMajor3) Coords(idx int) (int, int, int) {
	x := idx % r.W
	y := (idx / r.W) % r.H
	z := idx / (r.W * r.H)
	return x, y, z
}

// Size implements Indexer3.
func (r RowMajor3) Size() (int, int, int) { return r.W, r.H, r.D }

// Name implements Indexer3.
func (r RowMajor3) Name() string { return SchemeRowMajor }

// Snake3 is the boustrophedon order in three dimensions: x alternates per
// row, y alternates per plane — a Hamiltonian path on the box grid, but
// with locality in essentially one dimension only.
type Snake3 struct{ W, H, D int }

// Index implements Indexer3. The x direction alternates with the global
// row parity (z·H + yy) so the path stays continuous across plane seams
// even for odd H; the per-row formula is the shared snakeRowIndex.
func (s Snake3) Index(x, y, z int) int {
	yy := y
	if z%2 == 1 {
		yy = s.H - 1 - y
	}
	return snakeRowIndex(s.W, z*s.H+yy, x)
}

// Coords implements Indexer3.
func (s Snake3) Coords(idx int) (int, int, int) {
	row, x := snakeRowCoords(s.W, idx)
	z := row / s.H
	yy := row % s.H
	y := yy
	if z%2 == 1 {
		y = s.H - 1 - yy
	}
	return x, y, z
}

// Size implements Indexer3.
func (s Snake3) Size() (int, int, int) { return s.W, s.H, s.D }

// Name implements Indexer3.
func (s Snake3) Name() string { return SchemeSnake }

// compacted3 is the table-compacted curve over the enclosing cube.
type compacted3 struct {
	w, h, d   int
	name      string
	cellToIdx []int32
	idxToCell []int32
}

type curveKind3 int

const (
	curveHilbert3 curveKind3 = iota
	curveMorton3
)

func newCompacted3(w, h, d int, kind curveKind3) *compacted3 {
	side := SideForGrid(SideForGrid(w, h), d) // max extent rounded up to pow2
	bits := 0
	for 1<<bits < side {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	c := &compacted3{w: w, h: h, d: d}
	switch kind {
	case curveHilbert3:
		c.name = SchemeHilbert
	case curveMorton3:
		c.name = SchemeMorton
	}
	total := uint64(1) << uint(3*bits)
	coords := make([]uint32, 3)
	c.cellToIdx, c.idxToCell = buildCompactTables(w*h*d, total,
		func(rank uint64) (int32, bool) {
			var x, y, z int
			if kind == curveHilbert3 {
				HilbertIndexToAxes(rank, bits, coords)
				x, y, z = int(coords[0]), int(coords[1]), int(coords[2])
			} else {
				x = int(compact3Bits(rank))
				y = int(compact3Bits(rank >> 1))
				z = int(compact3Bits(rank >> 2))
			}
			if x >= w || y >= h || z >= d {
				return 0, false
			}
			return int32((z*h+y)*w + x), true
		})
	return c
}

// compact3Bits keeps every third bit of v (positions 0, 3, 6, …), the
// inverse of 3-way Morton interleaving for one dimension.
func compact3Bits(v uint64) uint64 {
	var out uint64
	for b := 0; b < 21; b++ {
		out |= (v >> uint(3*b) & 1) << uint(b)
	}
	return out
}

// Index implements Indexer3.
func (c *compacted3) Index(x, y, z int) int { return int(c.cellToIdx[(z*c.h+y)*c.w+x]) }

// Coords implements Indexer3.
func (c *compacted3) Coords(idx int) (int, int, int) {
	cell := int(c.idxToCell[idx])
	x := cell % c.w
	y := (cell / c.w) % c.h
	z := cell / (c.w * c.h)
	return x, y, z
}

// Size implements Indexer3.
func (c *compacted3) Size() (int, int, int) { return c.w, c.h, c.d }

// Name implements Indexer3.
func (c *compacted3) Name() string { return c.name }
