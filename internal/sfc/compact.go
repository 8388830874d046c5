package sfc

import "math/bits"

// Dimension-independent index-construction machinery shared by the 2-D and
// 3-D curve indexers. Two pieces recur in every scheme:
//
//   - table compaction: Hilbert and Morton curves are defined on enclosing
//     power-of-two boxes; embedding a general W×H(×D) grid means walking the
//     box curve in rank order and assigning consecutive compact indices to
//     the cells that fall inside the grid, and
//   - the boustrophedon row formula: snake ordering in any dimension is
//     "row-major over rows, with x reversed on odd rows" once the rows are
//     themselves linearised (y in 2-D; the z-alternating z·H+y strip in 3-D).
//
// Keeping one implementation of each here means the 2-D and 3-D indexers
// cannot drift apart; the property tests cross-check them against the
// closed-form definitions.

// compactor numbers the cells of a grid in the order a curve walk reaches
// them. The walkers (newCompacted, newCompacted3) decode each curve rank of
// the enclosing box inline, hand the cells inside the grid to add, and step
// past the rest with skipOutside; the tables are then mutually inverse
// bijections over 0..numCells−1.
type compactor struct {
	cellToIdx, idxToCell []int32
	next                 int32
}

func newCompactor(numCells int) compactor {
	return compactor{cellToIdx: make([]int32, numCells), idxToCell: make([]int32, numCells)}
}

// add gives cell the next compact index.
func (c *compactor) add(cell int32) {
	c.cellToIdx[cell] = c.next
	c.idxToCell[c.next] = cell
	c.next++
}

// skipOutside returns how many curve ranks, from rank on, lie outside the
// grid ext, given that rank's cell at lies outside it. Both curves map every
// aligned block of 2^(dims·k) ranks onto one aligned cube of side 2^k, so
// the largest such block starting at rank whose cube's low corner lies
// outside the grid holds no cell of it and is stepped past whole. bitCount
// is log₂ of the enclosing box's side; 2-D callers leave at[2] = 0 and
// ext[2] = 1.
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

// snakeRowIndex is the shared boustrophedon formula: cells are ordered row
// by row (rows of width w, already linearised by the caller), with the x
// direction reversed on odd rows so consecutive indices stay adjacent.
func snakeRowIndex(w, row, x int) int {
	if row%2 == 1 {
		x = w - 1 - x
	}
	return row*w + x
}

// snakeRowCoords inverts snakeRowIndex.
func snakeRowCoords(w, idx int) (row, x int) {
	row = idx / w
	x = idx % w
	if row%2 == 1 {
		x = w - 1 - x
	}
	return row, x
}
