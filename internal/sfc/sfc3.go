package sfc

import (
	"fmt"
	"math/bits"
)

// The paper notes that its indexing scheme "can be generalized to
// n-dimensions and used to convert an n-dimensional index into a
// one-dimensional index such that proximity in the n-dimensions is
// generally maintained". This file provides the three-dimensional
// instantiation used by the 3-D partitioning analysis: Hilbert (via
// Skilling's algorithm, hilbertAxes3), snakelike, row-major and Morton orders
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
		return newCompacted3(w, h, d, true), nil
	case SchemeMorton:
		return newCompacted3(w, h, d, false), nil
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

// newCompacted3 walks the enclosing cube's curve in rank order, decoding
// each rank inline with the fixed-width three-axis decoders below, and
// assigns consecutive compact indices to the cells inside the box, stepping
// past the curve's blocks that lie wholly outside it.
func newCompacted3(w, h, d int, hilbert bool) *compacted3 {
	side := SideForGrid(SideForGrid(w, h), d) // max extent rounded up to pow2
	bitCount := max(bits.Len(uint(side-1)), 1)
	name := SchemeMorton
	if hilbert {
		name = SchemeHilbert
	}
	c := newCompactor(w * h * d)
	for rank, total := uint64(0), uint64(1)<<uint(3*bitCount); rank < total; {
		var x, y, z int
		if hilbert {
			x, y, z = hilbertAxes3(rank, bitCount)
		} else {
			x, y, z = mortonAxes3(rank)
		}
		if x >= w || y >= h || z >= d {
			rank += skipOutside(rank, 3, bitCount, [3]int{x, y, z}, [3]int{w, h, d})
			continue
		}
		c.add(int32((z*h+y)*w + x))
		rank++
	}
	return &compacted3{w: w, h: h, d: d, name: name, cellToIdx: c.cellToIdx, idxToCell: c.idxToCell}
}

// hilbertAxes3 decodes the 3-D Hilbert curve rank idx over a cube of side
// 2^bitCount into its cell: Skilling's transpose algorithm ("Programming
// the Hilbert curve", AIP Conf. Proc. 707, 2004) unrolled for three axes —
// de-interleave the rank into the transpose form, Gray-decode it, then undo
// the excess work level by level.
func hilbertAxes3(idx uint64, bitCount int) (x, y, z int) {
	x0 := uint32(compact3Bits(idx >> 2))
	x1 := uint32(compact3Bits(idx >> 1))
	x2 := uint32(compact3Bits(idx))
	t := x2 >> 1
	x2 ^= x1
	x1 ^= x0
	x0 ^= t
	for q := uint32(2); q != 2<<uint(bitCount-1); q <<= 1 {
		p := q - 1
		if x2&q != 0 {
			x0 ^= p
		} else {
			t := (x0 ^ x2) & p
			x0 ^= t
			x2 ^= t
		}
		if x1&q != 0 {
			x0 ^= p
		} else {
			t := (x0 ^ x1) & p
			x0 ^= t
			x1 ^= t
		}
		if x0&q != 0 {
			x0 ^= p
		}
	}
	return int(x0), int(x1), int(x2)
}

// mortonAxes3 de-interleaves the 3-D Morton rank idx (x in bit positions 0,
// 3, 6, …) into its cell.
func mortonAxes3(idx uint64) (x, y, z int) {
	return int(compact3Bits(idx)), int(compact3Bits(idx >> 1)), int(compact3Bits(idx >> 2))
}

// compact3Bits keeps every third bit of v (positions 0, 3, 6, …, 60), the
// inverse of 3-way Morton interleaving for one dimension.
func compact3Bits(v uint64) uint64 {
	v &= 0x1249249249249249
	v = (v ^ v>>2) & 0x10c30c30c30c30c3
	v = (v ^ v>>4) & 0x100f00f00f00f00f
	v = (v ^ v>>8) & 0x001f0000ff0000ff
	v = (v ^ v>>16) & 0x001f00000000ffff
	v = (v ^ v>>32) & 0x00000000001fffff
	return v
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
