// Order-maintaining weighted load balance: the weighted generalisation of
// loadBalanceInto. Instead of equalising particle counts, it cuts the
// globally sorted particle sequence at equal cumulative cost under a
// per-key weight function — the psort half of cost-weighted partitioning.
//
// Weights are quantized to integers on a cross-rank-agreed power-of-two
// scale (mesh.WeightScale), so the prefix sums and cut comparisons every
// rank performs are exact: adjacent ranks can never disagree about the
// owner of a boundary particle, which is what keeps the concatenated
// global order intact. Uniform weights reproduce the equal-count BLOCK
// split cut for cut (mesh.WeightedCuts is the weighted image of
// mesh.BlockRange).

package psort

import (
	"picpar/internal/comm"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/wire"
)

// weighWorkPerParticle is the modelled δ units to evaluate and quantize
// one particle's weight during a weighted balance.
const weighWorkPerParticle = 2

// weightedBalanceInto is loadBalanceInto with per-particle weights wf(key):
// it preserves the global concatenated key order while equalising
// cumulative weight instead of count, under the same input, output and
// exchanger contracts. Degenerate weight states (nil wf, all weights zero
// or unusable) fall back to the equal-count split — every rank sees the
// same allgathered totals, so the fallback is collectively consistent.
func (inc *Incremental) weightedBalanceInto(r comm.Transport, q seq, out *particle.Store, wf func(key float64) float64, ex *comm.Exchanger) *particle.Store {
	if wf == nil {
		return inc.loadBalanceInto(r, q, out, ex)
	}
	p := r.Size()
	n := q.len()
	inc.w = fit(inc.w, n)
	inc.iw = fit(inc.iw, n)

	// Local weights and their max; the max allgather fixes the shared
	// quantization scale.
	maxW := 0.0
	j := 0
	for _, ru := range q {
		for k := 0; k < ru.n; k++ {
			w := wf(ru.key(k))
			if !(w > 0) { // sanitize NaN/Inf/negatives to zero
				w = 0
			}
			inc.w[j] = w
			j++
			if w > maxW {
				maxW = w
			}
		}
	}
	r.Compute(n * weighWorkPerParticle)
	head := comm.AllgatherFloat64s(r, []float64{maxW, float64(n)})
	total := 0
	for k := 0; k < p; k++ {
		if head[2*k] > maxW {
			maxW = head[2*k]
		}
		total += int(head[2*k+1])
	}
	wire.Put(head)

	scale := mesh.WeightScale(maxW)
	localW := int64(0)
	for i := 0; i < n; i++ {
		inc.iw[i] = mesh.QuantizeWeight(inc.w[i], scale)
		localW += inc.iw[i]
	}
	// Rank-ordered exact sums: int64 weights transported through float64
	// stay exact far beyond any realistic population (< 2^52 total).
	sums := comm.AllgatherFloat64s(r, []float64{float64(localW)})
	totW, before := int64(0), int64(0)
	for k := 0; k < p; k++ {
		v := int64(sums[k])
		totW += v
		if k < r.Rank() {
			before += v
		}
	}
	wire.Put(sums)

	if p == 1 || total == 0 || totW <= 0 {
		return inc.loadBalanceInto(r, q, out, ex)
	}

	// Walk the local particles in order, advancing through the weighted
	// cuts: owners are monotone, so the local range splits into contiguous
	// runs per destination and the self-run (if any) is a single range.
	inc.sendScratch(p)
	inc.cuts = mesh.WeightedCuts(inc.cuts[:0], totW, total, p)
	cuts := inc.cuts
	i, prefix := 0, before
	k := mesh.AdvanceCut(cuts, 0, prefix)
	for i < n {
		d := k
		runEnd := i
		for runEnd < n && k == d {
			prefix += inc.iw[runEnd]
			runEnd++
			k = mesh.AdvanceCut(cuts, k, prefix)
		}
		inc.route(r, q, d, i, runEnd)
		i = runEnd
	}
	return inc.deliver(r, q, out, ex)
}
