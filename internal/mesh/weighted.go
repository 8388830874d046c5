package mesh

import "math"

// Weighted BLOCK splitting. BlockRange cuts n unit-weight items at the
// boundaries k·n/p; the weighted generalisation cuts a sequence of items
// with integer weights at the images of those same boundaries under the
// (piecewise-linear) cumulative-weight map. Working in integers keeps every
// rank's view of the cut positions exact: prefix sums and cut comparisons
// involve no rounding, so independently computed owners on different ranks
// can never disagree at a boundary, and the uniform-weight case collapses
// to BlockOwner item for item.

// WeightedCuts appends to dst the p−1 cumulative-weight cut positions for
// splitting n items of total integer weight totalW into p pieces. Item i
// (0-based) belongs to piece k iff its prefix weight (sum of weights of
// items 0..i−1) lies in [cut_{k−1}, cut_k), with cut_{−1}=0 and cut_{p−1}
// unbounded; AdvanceCut implements that rule. The cut for boundary k is the
// exact rational totalW·(k·n/p)/n — the cumulative weight at BlockRange's
// item boundary under uniform weights — evaluated without overflow as
// q·lo + rem·lo/n where q, rem = totalW divmod n and lo = k·n/p.
func WeightedCuts(dst []int64, totalW int64, n, p int) []int64 {
	if n == 0 {
		return append(dst, make([]int64, p-1)...)
	}
	q, rem := totalW/int64(n), totalW%int64(n)
	for k := 1; k < p; k++ {
		lo := int64(k * n / p)
		dst = append(dst, q*lo+rem*lo/int64(n))
	}
	return dst
}

// AdvanceCut returns the owner of the item whose prefix weight is prefix,
// given that the previous item's owner was at least k. Owners are
// monotone in the prefix, so a single forward scan over the sorted items
// visits each cut once.
func AdvanceCut(cuts []int64, k int, prefix int64) int {
	for k < len(cuts) && cuts[k] <= prefix {
		k++
	}
	return k
}

// WeightScale returns the power-of-two scale factor that maps a maximum
// weight maxW into [2^19, 2^20). Quantizing weights as round(w·scale)
// keeps per-item resolution near one part in a million while leaving
// dozens of bits of headroom before int64 prefix sums could overflow
// (2^20 per item × 2^31 items < 2^52). A power of two makes the
// quantization exactly invariant under power-of-two weight rescaling.
// Returns 0 when maxW is not a positive finite number.
func WeightScale(maxW float64) float64 {
	if !(maxW > 0) || math.IsInf(maxW, 1) {
		return 0
	}
	return math.Ldexp(1, 19-math.Ilogb(maxW))
}

// QuantizeWeight rounds w·scale to the nearest integer weight.
// Non-positive and non-finite weights quantize to 0.
func QuantizeWeight(w, scale float64) int64 {
	if !(w > 0) {
		return 0
	}
	return int64(float64(w*scale) + 0.5)
}
