// Independent partitioning over any geometry: particles are dealt in
// (key, original index) order into P contiguous chunks, while the mesh
// keeps its BLOCK distribution. The chunk boundaries equalise count, or
// cumulative *weight* under per-cell weights — Liu et al.'s Hilbert-SFC
// weighted splitting expressed over the same radix-sorted order. Weights
// are quantized to integers on a shared power-of-two scale so the
// prefix-sum arithmetic is exact: equal-count is recovered bit for bit when
// every weight is the same, and the split is exactly invariant under
// power-of-two weight rescaling.

package partition

import (
	"picpar/internal/geom"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/radix"
)

// WeightFunc maps an SFC cell key to the estimated cost of one particle in
// that cell. Non-finite and non-positive values are treated as zero weight.
type WeightFunc func(cellKey uint64) float64

// sanitizeWeight clamps NaN, ±Inf and negative weights to zero so a single
// bad estimate cannot poison the split.
func sanitizeWeight(w float64) float64 {
	if !(w > 0) { // catches NaN, zero, negatives
		return 0
	}
	return w
}

// weightedOwners deals the particles, in stable (key, original index)
// order, into P contiguous chunks of approximately equal cumulative
// weight. A nil wf (or all-zero weights) deals equal-count BLOCK chunks.
func weightedOwners(keys []uint64, p int, wf WeightFunc) []int {
	n := len(keys)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sorted, order := radix.SortKeysIndex(keys, order, nil)
	owners := make([]int, n)

	// Quantize weights in sorted order on the shared power-of-two scale.
	var iw []int64
	total := int64(0)
	if wf != nil {
		w := make([]float64, n)
		maxW := 0.0
		for pos := range sorted {
			w[pos] = sanitizeWeight(wf(sorted[pos]))
			if w[pos] > maxW {
				maxW = w[pos]
			}
		}
		scale := mesh.WeightScale(maxW)
		iw = make([]int64, n)
		for pos := range w {
			iw[pos] = mesh.QuantizeWeight(w[pos], scale)
			total += iw[pos]
		}
	}
	if total <= 0 {
		for pos, i := range order {
			owners[i] = mesh.BlockOwner(n, p, pos)
		}
		return owners
	}

	cuts := mesh.WeightedCuts(nil, total, n, p)
	k, prefix := 0, int64(0)
	for pos, i := range order {
		k = mesh.AdvanceCut(cuts, k, prefix)
		owners[i] = k
		prefix += iw[pos]
	}
	return owners
}

// BuildIndependent computes the independent-partitioning layout for the
// store's current positions under ge: particles into equal-count chunks by
// SFC key, while the mesh keeps its BLOCK distribution. The store's keys
// are refreshed as a side effect (exactly what ge.AssignKeys produces).
func BuildIndependent(ge geom.Geometry, s *particle.Store) *Layout {
	return BuildIndependentWeighted(ge, s, nil)
}

// BuildIndependentWeighted computes the weighted independent-partitioning
// layout for the store's current positions under ge, splitting the SFC
// order by cumulative weight. A nil wf is BuildIndependent. The store's
// keys are refreshed as a side effect.
func BuildIndependentWeighted(ge geom.Geometry, s *particle.Store, wf WeightFunc) *Layout {
	ge.AssignKeys(s)
	keys := make([]uint64, s.Len())
	for i := range keys {
		keys[i] = uint64(s.Key[i])
	}
	return &Layout{Particles: weightedOwners(keys, ge.Ranks(), wf), Points: blockPoints(ge)}
}

// imbalanceF is imbalance over float loads: max/mean, or 1 for zero total.
func imbalanceF(loads []float64) float64 {
	total, max := 0.0, 0.0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	mean := total / float64(len(loads))
	return max / mean
}
