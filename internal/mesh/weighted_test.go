package mesh

import (
	"math"
	"testing"
)

// TestWeightedCutsUniformMatchesBlockOwner: under uniform weights the
// weighted split must reproduce the BLOCK decomposition item for item —
// equal-count is the weight-1 special case, not an approximation of it.
func TestWeightedCutsUniformMatchesBlockOwner(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 100, 1023} {
		for _, p := range []int{1, 2, 3, 4, 7, 8, 16, 32} {
			for _, w := range []int64{1, 524288, 777} {
				cuts := WeightedCuts(nil, w*int64(n), n, p)
				k, prefix := 0, int64(0)
				for i := 0; i < n; i++ {
					k = AdvanceCut(cuts, k, prefix)
					if want := BlockOwner(n, p, i); k != want {
						t.Fatalf("n=%d p=%d w=%d item %d: owner %d, want BlockOwner %d",
							n, p, w, i, k, want)
					}
					prefix += w
				}
			}
		}
	}
}

// TestWeightedCutsBoundariesMatchBlockRange: with uniform weights, cut k
// must sit exactly at the cumulative weight of BlockRange's boundary.
func TestWeightedCutsBoundariesMatchBlockRange(t *testing.T) {
	for _, n := range []int{5, 64, 129} {
		for _, p := range []int{2, 3, 8, 13} {
			const w = 3
			cuts := WeightedCuts(nil, w*int64(n), n, p)
			for k := 1; k < p; k++ {
				lo, _ := BlockRange(n, p, k)
				if cuts[k-1] != w*int64(lo) {
					t.Fatalf("n=%d p=%d cut %d = %d, want %d", n, p, k, cuts[k-1], w*int64(lo))
				}
			}
		}
	}
}

// TestWeightedCutsMonotone: cuts are non-decreasing and bounded by totalW
// for arbitrary totals, including totals that do not divide evenly.
func TestWeightedCutsMonotone(t *testing.T) {
	for _, tc := range []struct {
		totalW int64
		n, p   int
	}{
		{17, 5, 3}, {1, 100, 8}, {1 << 40, 1000, 32}, {999999937, 1023, 7},
	} {
		cuts := WeightedCuts(nil, tc.totalW, tc.n, tc.p)
		prev := int64(0)
		for i, c := range cuts {
			if c < prev || c > tc.totalW {
				t.Fatalf("totalW=%d n=%d p=%d: cut %d = %d out of order (prev %d)",
					tc.totalW, tc.n, tc.p, i, c, prev)
			}
			prev = c
		}
	}
}

// TestWeightScalePowerOfTwo: the scale is a power of two placing maxW·scale
// in [2^19, 2^20), and degenerate inputs yield scale 0.
func TestWeightScalePowerOfTwo(t *testing.T) {
	for _, w := range []float64{1e-30, 0.001, 0.5, 1, 1.5, 3, 1e6, 1e30} {
		s := WeightScale(w)
		if s <= 0 {
			t.Fatalf("WeightScale(%g) = %g, want positive", w, s)
		}
		if frac, _ := math.Frexp(s); frac != 0.5 {
			t.Errorf("WeightScale(%g) = %g is not a power of two", w, s)
		}
		if v := w * s; v < 1<<19 || v >= 1<<20 {
			t.Errorf("WeightScale(%g): scaled max %g outside [2^19, 2^20)", w, v)
		}
	}
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if s := WeightScale(w); s != 0 {
			t.Errorf("WeightScale(%g) = %g, want 0", w, s)
		}
	}
}

// TestQuantizeWeightScalingInvariance: quantization under WeightScale is
// exactly invariant when all weights are rescaled by a power of two — the
// scale shifts by the inverse power, so the products are bit-identical.
func TestQuantizeWeightScalingInvariance(t *testing.T) {
	ws := []float64{0.1, 0.25, 1, 2.7, 13.5, 100}
	maxW := 100.0
	for _, shift := range []float64{0.25, 4, 1024, 1.0 / 4096} {
		s0 := WeightScale(maxW)
		s1 := WeightScale(maxW * shift)
		for _, w := range ws {
			a := QuantizeWeight(w, s0)
			b := QuantizeWeight(w*shift, s1)
			if a != b {
				t.Fatalf("shift %g: QuantizeWeight(%g) %d != %d", shift, w, a, b)
			}
		}
	}
}

// TestQuantizeWeightDegenerate: non-positive and non-finite weights
// quantize to zero rather than poisoning the prefix sums.
func TestQuantizeWeightDegenerate(t *testing.T) {
	s := WeightScale(1)
	for _, w := range []float64{0, -1, math.NaN()} {
		if q := QuantizeWeight(w, s); q != 0 {
			t.Errorf("QuantizeWeight(%g) = %d, want 0", w, q)
		}
	}
}
