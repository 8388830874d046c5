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
	"sync"

	"picpar/internal/comm"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/wire"
)

// weighWorkPerParticle is the modelled δ units to evaluate and quantize
// one particle's weight during a weighted balance.
const weighWorkPerParticle = 2

// wbScratch recycles the per-call bookkeeping of weightedBalanceInto.
type wbScratch struct {
	send   [][]float64
	counts []int
	w      []float64 // raw sanitized weights, sorted-local order
	iw     []int64   // quantized weights
}

var wbPool = sync.Pool{New: func() any { return new(wbScratch) }}

func (sc *wbScratch) grow(p, n int) {
	if cap(sc.send) < p {
		sc.send = make([][]float64, p)
		sc.counts = make([]int, p)
	}
	sc.send = sc.send[:p]
	sc.counts = sc.counts[:p]
	for d := 0; d < p; d++ {
		sc.send[d] = nil
		sc.counts[d] = 0
	}
	if cap(sc.w) < n {
		sc.w = make([]float64, n)
		sc.iw = make([]int64, n)
	}
	sc.w = sc.w[:n]
	sc.iw = sc.iw[:n]
}

// weightedBalanceInto is loadBalanceInto with per-particle weights wf(key):
// it preserves the global concatenated key order while equalising
// cumulative weight instead of count, under the same reuse and exchanger
// contracts. Degenerate weight states (nil wf, all weights zero or
// unusable) fall back to the equal-count split — every rank sees the same
// allgathered totals, so the fallback is collectively consistent.
func weightedBalanceInto(r comm.Transport, s, reuse *particle.Store, wf func(key float64) float64, ex *comm.Exchanger) *particle.Store {
	if wf == nil {
		return loadBalanceInto(r, s, reuse, ex)
	}
	p := r.Size()
	n := s.Len()

	sc := wbPool.Get().(*wbScratch)
	sc.grow(p, n)

	// Local weights and their max; the max allgather fixes the shared
	// quantization scale.
	maxW := 0.0
	for i := 0; i < n; i++ {
		w := wf(s.Key[i])
		if !(w > 0) { // sanitize NaN/Inf/negatives to zero
			w = 0
		}
		sc.w[i] = w
		if w > maxW {
			maxW = w
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

	scale := mesh.WeightScale(maxW)
	localW := int64(0)
	for i := 0; i < n; i++ {
		sc.iw[i] = mesh.QuantizeWeight(sc.w[i], scale)
		localW += sc.iw[i]
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

	if p == 1 || total == 0 || totW <= 0 {
		wbPool.Put(sc)
		return loadBalanceInto(r, s, reuse, ex)
	}

	// Walk the local particles in order, advancing through the weighted
	// cuts: owners are monotone, so the local range splits into contiguous
	// runs per destination and the self-run (if any) is a single range.
	cuts := mesh.WeightedCuts(totW, total, p)
	wfn := s.WireFloats()
	send, counts := sc.send, sc.counts
	keepLo, keepHi := 0, 0
	i, prefix := 0, before
	k := mesh.AdvanceCut(cuts, 0, prefix)
	for i < n {
		d := k
		runEnd := i
		for runEnd < n && k == d {
			prefix += sc.iw[runEnd]
			runEnd++
			k = mesh.AdvanceCut(cuts, k, prefix)
		}
		if d == r.Rank() {
			keepLo, keepHi = i, runEnd
		} else {
			send[d] = s.MarshalRange(wire.Get((runEnd-i)*wfn), i, runEnd)
			counts[d] = len(send[d])
			r.Compute((runEnd - i) * packWorkPerParticle)
		}
		i = runEnd
	}
	recv := ex.Exchange(r, send, counts)
	wbPool.Put(sc)

	out := reuse
	if out == nil {
		out = s.NewLike(keepHi - keepLo)
	} else {
		out.Truncate(0)
		out.Charge, out.Mass = s.Charge, s.Mass
	}
	for src := 0; src < p; src++ {
		if src == r.Rank() {
			for j := keepLo; j < keepHi; j++ {
				out.AppendFrom(s, j)
			}
			continue
		}
		if len(recv[src]) == 0 {
			continue
		}
		if err := out.AppendWire(recv[src]); err != nil {
			panic(err)
		}
		r.Compute(len(recv[src]) / wfn * packWorkPerParticle)
		wire.Put(recv[src])
	}
	return out
}
