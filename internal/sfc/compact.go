package sfc

import "math/bits"

// Hilbert and Morton curves are defined on enclosing power-of-two boxes.
// Embedding a general W×H×D grid means walking the box curve in rank order
// and assigning consecutive compact indices to the cells that fall inside
// the grid; one walk does this for both curves in either dimension, so the
// plane and box tables cannot drift apart. The property tests cross-check
// the tables against reference decodes of the curves.

// decoder maps a rank of a curve over the cube of side 2^bitCount to its
// cell; a plane curve leaves z = 0.
type decoder func(rank uint64, bitCount int) (x, y, z int)

// table is a curve compacted onto its grid: lookups in both directions are
// O(1) reads of mutually inverse bijections over 0..W*H*D−1.
type table struct {
	rowMajor  // the grid, and the cell number of a cell
	name      string
	cellToIdx []int32 // row-major cell -> compact curve rank
	idxToCell []int32 // compact curve rank -> row-major cell
}

// compact walks the dims-dimensional curve that decode decodes over the
// power-of-two box enclosing grid b, in rank order, and gives the cells
// inside the grid consecutive compact indices, stepping past the curve's
// blocks that lie wholly outside it.
func compact(b rowMajor, name string, dims int, decode decoder) *table {
	bitCount := max(bits.Len(uint(sideForGrid(b.w, b.h, b.d)-1)), 1)
	n := b.w * b.h * b.d
	t := &table{rowMajor: b, name: name, cellToIdx: make([]int32, n), idxToCell: make([]int32, n)}
	next := int32(0)
	for rank, total := uint64(0), uint64(1)<<(dims*bitCount); rank < total; {
		x, y, z := decode(rank, bitCount)
		if x >= b.w || y >= b.h || z >= b.d {
			rank += skipOutside(rank, dims, bitCount, [3]int{x, y, z}, [3]int{b.w, b.h, b.d})
			continue
		}
		cell := int32(b.Index(x, y, z))
		t.cellToIdx[cell] = next
		t.idxToCell[next] = cell
		next++
		rank++
	}
	return t
}

// skipOutside returns how many curve ranks, from rank on, lie outside the
// grid ext, given that rank's cell at lies outside it. Both curves map every
// aligned block of 2^(dims·k) ranks onto one aligned cube of side 2^k, so
// the largest such block starting at rank whose cube's low corner lies
// outside the grid holds no cell of it and is stepped past whole. bitCount
// is log₂ of the enclosing box's side; a plane has at[2] = 0 and ext[2] = 1.
func skipOutside(rank uint64, dims, bitCount int, at, ext [3]int) uint64 {
	k := min(bitCount, bits.TrailingZeros64(rank)/dims)
	for ; k > 0; k-- {
		low := ^(1<<k - 1)
		if at[0]&low >= ext[0] || at[1]&low >= ext[1] || at[2]&low >= ext[2] {
			break
		}
	}
	return 1 << (dims * k)
}

// sideForGrid returns the power-of-two side of the square or cube enclosing
// a w×h×d grid.
func sideForGrid(w, h, d int) int {
	if m := max(w, h, d); m > 1 {
		return 1 << bits.Len(uint(m-1))
	}
	return 1
}

// Index implements Indexer.
func (t *table) Index(x, y, z int) int { return int(t.cellToIdx[t.rowMajor.Index(x, y, z)]) }

// Coords implements Indexer.
func (t *table) Coords(idx int) (int, int, int) { return t.rowMajor.Coords(int(t.idxToCell[idx])) }

// Name implements Indexer.
func (t *table) Name() string { return t.name }
