package sfc

import (
	"fmt"
	"math/bits"
)

// HilbertD2XY maps distance d along the Hilbert curve of an n×n grid (n a
// power of two) to cell coordinates. Classic quadrant-rotation formulation.
func HilbertD2XY(n, d int) (x, y int) {
	t := d
	for s := 1; s < n; s *= 2 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		x, y = hilbertRot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// hilbertRot rotates/reflects the quadrant as the curve recursion demands.
func hilbertRot(s, x, y, rx, ry int) (int, int) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// Hilbert is an Indexer that orders the cells of a W×H grid by their
// position along the Hilbert curve of the enclosing power-of-two square,
// with ranks compacted so that indices are exactly 0..W*H−1. Lookups in
// both directions are O(1) table reads.
type Hilbert struct {
	w, h      int
	cellToIdx []int32 // [y*w+x] -> compact curve rank
	idxToCell []int32 // rank -> y*w+x
}

// NewHilbert builds the Hilbert indexer for a w×h grid.
func NewHilbert(w, h int) (*Hilbert, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("sfc: invalid hilbert grid %dx%d", w, h)
	}
	return newCompacted(w, h, true), nil
}

// NewMorton builds a Morton (Z-order) indexer for a w×h grid, compacted the
// same way as Hilbert. Morton preserves multi-dimensional locality on
// average but has long jumps at power-of-two boundaries.
func NewMorton(w, h int) (*Morton, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("sfc: invalid morton grid %dx%d", w, h)
	}
	return &Morton{Hilbert: *newCompacted(w, h, false)}, nil
}

// newCompacted walks the enclosing square's curve in rank order and assigns
// consecutive compact indices to the cells inside the rectangle, stepping
// past the curve's blocks that lie wholly outside it. The 2-D Hilbert curve
// itself stays the classic quadrant-rotation formulation (HilbertD2XY) —
// only the compaction is shared with 3-D.
func newCompacted(w, h int, hilbert bool) *Hilbert {
	side := SideForGrid(w, h)
	bitCount := bits.Len(uint(side - 1))
	c := newCompactor(w * h)
	for rank, total := uint64(0), uint64(side)*uint64(side); rank < total; {
		var x, y int
		if hilbert {
			x, y = HilbertD2XY(side, int(rank))
		} else {
			x, y = mortonD2XY(int(rank))
		}
		if x >= w || y >= h {
			rank += skipOutside(rank, 2, bitCount, [3]int{x, y}, [3]int{w, h, 1})
			continue
		}
		c.add(int32(y*w + x))
		rank++
	}
	return &Hilbert{w: w, h: h, cellToIdx: c.cellToIdx, idxToCell: c.idxToCell}
}

// Index implements Indexer.
func (hx *Hilbert) Index(x, y int) int { return int(hx.cellToIdx[y*hx.w+x]) }

// Coords implements Indexer.
func (hx *Hilbert) Coords(idx int) (int, int) {
	c := int(hx.idxToCell[idx])
	return c % hx.w, c / hx.w
}

// Size implements Indexer.
func (hx *Hilbert) Size() (int, int) { return hx.w, hx.h }

// Name implements Indexer.
func (hx *Hilbert) Name() string { return SchemeHilbert }

// Morton is the Z-order counterpart of Hilbert, sharing its compacted-table
// machinery.
type Morton struct{ Hilbert }

// Name implements Indexer.
func (m *Morton) Name() string { return SchemeMorton }

// mortonD2XY de-interleaves the bits of d into (x, y).
func mortonD2XY(d int) (x, y int) {
	u := uint64(d)
	x = int(compactBits(u))
	y = int(compactBits(u >> 1))
	return x, y
}

// compactBits keeps the even-position bits of v, packed.
func compactBits(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return v
}

// SideForGrid returns the power-of-two side of the enclosing square used by
// the compacted curves for a w×h grid.
func SideForGrid(w, h int) int {
	m := w
	if h > m {
		m = h
	}
	if m <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(m-1))
}
