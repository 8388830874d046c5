package sfc

// The rank decoders of the compacted curves: each maps a curve rank over
// the cube of side 2^bitCount to its cell, in the signature of decoder.

// hilbertAxes2 decodes the 2-D Hilbert curve rank over a square of side
// 2^bitCount: the classic quadrant-rotation formulation.
func hilbertAxes2(rank uint64, bitCount int) (x, y, z int) {
	t := int(rank)
	for s := 1; s < 1<<bitCount; s *= 2 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		x, y = hilbertRot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y, 0
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

// mortonAxes2 de-interleaves the 2-D Morton (Z-order) rank (x in the even
// bit positions) into its cell. Morton preserves multi-dimensional
// locality on average but has long jumps at power-of-two boundaries.
func mortonAxes2(rank uint64, _ int) (x, y, z int) {
	return int(compactBits(rank)), int(compactBits(rank >> 1)), 0
}

// mortonAxes3 de-interleaves the 3-D Morton rank (x in bit positions 0,
// 3, 6, …) into its cell.
func mortonAxes3(rank uint64, _ int) (x, y, z int) {
	return int(compact3Bits(rank)), int(compact3Bits(rank >> 1)), int(compact3Bits(rank >> 2))
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
