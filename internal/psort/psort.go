// Package psort implements the parallel sorting machinery behind particle
// distribution and redistribution:
//
//   - a sample sort used for the initial distribution (and as the "full
//     re-sort" ablation baseline),
//   - the paper's bucket-based incremental sorting algorithm (Figure 12),
//     which reuses the bucket boundaries remembered from the previous
//     redistribution to classify each particle as same-bucket, other local
//     bucket, or off-processor, followed by an all-to-many exchange, local
//     bucket sorts and a merge,
//   - the order-maintaining load balance that equalises particle counts
//     without perturbing the global key order.
//
// All routines leave every rank with a locally sorted store, the
// concatenation of which (in rank order) is globally sorted by key.
package psort

import (
	"math"
	"sort"
	"sync"

	"picpar/internal/comm"
	"picpar/internal/mesh"
	"picpar/internal/par"
	"picpar/internal/particle"
	"picpar/internal/wire"
)

// Exchange tags.
const (
	tagSortExchange comm.Tag = comm.TagUser + 20 + iota
	tagBalance
)

// Modelled δ units for sort-related computation.
const (
	classifyWorkSameBucket = 2 // two comparisons against remembered bounds
	classifyWorkLocal      = 6 // binary search among L buckets
	classifyWorkRemote     = 8 // binary search among p processor bounds
	compareWork            = 1 // one comparison+swap step inside a sort
	packWorkPerParticle    = 7 // marshal/unmarshal one particle
)

// LocalSort sorts s in place by (key, id) and charges the comparison cost.
// The real work is a radix sort plus one permutation apply (see radix.go),
// with the radix passes spread over pool's shared-memory workers (nil or
// 1-worker pool: sequential), but the simulated charge stays the
// comparison-sort formula n·⌈log₂ n⌉·compareWork so all paper results are
// unchanged. The sorted order, the simulated charge and the steady-state
// zero-allocation property are identical for every pool size.
func LocalSort(r comm.Transport, s *particle.Store, pool *par.Pool) {
	n := s.Len()
	radixSortStore(s, pool)
	if n > 1 {
		r.Compute(n * ilog2(n) * compareWork)
	}
}

// ilog2 returns ⌈log₂ n⌉ for n ≥ 2, and 1 for n ∈ {0, 1}. The floor of 1
// is deliberate, not an off-by-one: the cost model charges at least one
// comparison step per element even for trivially small inputs, and every
// published simulated time was calibrated with that convention (changing
// ilog2(1) to the mathematical 0 would shift the δ charges of empty-rank
// corner cases and break bit-identical reproduction).
func ilog2(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	if k == 0 {
		return 1
	}
	return k
}

// IsLocallySorted reports whether s is non-decreasing by key.
func IsLocallySorted(s *particle.Store) bool {
	for i := 1; i < s.Len(); i++ {
		if s.Key[i] < s.Key[i-1] {
			return false
		}
	}
	return true
}

// SampleSort performs a full regular-sampling sample sort of the global
// particle population and returns this rank's sorted, balanced share. This
// is the paper's initial "distribution algorithm"; the incremental sort is
// the cheaper alternative for subsequent redistributions.
func SampleSort(r comm.Transport, s *particle.Store) *particle.Store {
	return SampleSortParX(r, s, nil, nil)
}

// SampleSortParX is SampleSort with the local radix sorts spread over
// pool's shared-memory workers (nil: sequential) and the all-to-many halves
// routed through ex (nil: the classic pairwise protocol). The returned
// distribution is identical for every pool size and every exchanger — only
// the message schedule (and on non-classic protocols the modelled network
// charges) differs.
func SampleSortParX(r comm.Transport, s *particle.Store, pool *par.Pool, ex *comm.Exchanger) *particle.Store {
	p := r.Size()
	LocalSort(r, s, pool)
	if p == 1 {
		return s
	}

	// Regular samples: p per rank.
	samples := make([]float64, p)
	n := s.Len()
	for k := 0; k < p; k++ {
		if n == 0 {
			samples[k] = math.Inf(1)
			continue
		}
		samples[k] = s.Key[k*n/p]
	}
	all := comm.AllgatherFloat64s(r, samples)
	sort.Float64s(all)
	r.Compute(len(all) * ilog2(len(all)) * compareWork)
	// p−1 splitters: every p-th sample.
	splitters := make([]float64, p-1)
	for k := 1; k < p; k++ {
		splitters[k-1] = all[k*p]
	}

	// Partition the sorted local array at the splitters.
	cuts := make([]int, p+1)
	cuts[p] = n
	for k := 0; k < p-1; k++ {
		cuts[k+1] = sort.SearchFloat64s(s.Key, splitters[k])
	}
	r.Compute((p - 1) * ilog2(n+1) * compareWork)

	wf := s.WireFloats()
	send := make([][]float64, p)
	counts := make([]int, p)
	for d := 0; d < p; d++ {
		lo, hi := cuts[d], cuts[d+1]
		if hi > lo {
			send[d] = s.MarshalRange(wire.Get((hi-lo)*wf), lo, hi)
			counts[d] = len(send[d])
			r.Compute((hi - lo) * packWorkPerParticle)
		}
	}
	recv := ex.Exchange(r, send, counts)

	out := s.NewLike(n)
	for src := 0; src < p; src++ {
		absorb(r, out, recv[src])
	}
	LocalSort(r, out, pool)
	return loadBalanceInto(r, out, nil, ex)
}

// balScratch recycles the per-call bookkeeping of the order-maintaining
// balances: the per-destination wire buffers and counts, the retained local
// run, and (weighted cut only) the raw and quantized per-particle weights.
type balScratch struct {
	send           [][]float64
	counts         []int
	keepLo, keepHi int
	w              []float64 // raw sanitized weights, sorted-local order
	iw             []int64   // quantized weights
}

var balPool = sync.Pool{New: func() any { return new(balScratch) }}

// getBalScratch returns a cleared scratch for p destinations and nw
// particle weights.
func getBalScratch(p, nw int) *balScratch {
	sc := balPool.Get().(*balScratch)
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
	sc.keepLo, sc.keepHi = 0, 0
	if cap(sc.w) < nw {
		sc.w = make([]float64, nw)
		sc.iw = make([]int64, nw)
	}
	sc.w = sc.w[:nw]
	sc.iw = sc.iw[:nw]
	return sc
}

// route assigns the contiguous local run [lo, hi) of s to rank d: the run
// this rank owns is retained in place, any other is marshalled (and
// charged) into a pooled wire buffer. Owners are monotone in position, so a
// cut preamble calls route once per destination, in ascending d.
func (sc *balScratch) route(r comm.Transport, s *particle.Store, d, lo, hi int) {
	if d == r.Rank() {
		sc.keepLo, sc.keepHi = lo, hi
		return
	}
	sc.send[d] = s.MarshalRange(wire.Get((hi-lo)*s.WireFloats()), lo, hi)
	sc.counts[d] = len(sc.send[d])
	r.Compute((hi - lo) * packWorkPerParticle)
}

// deliver is the tail both balances share: exchange the routed runs through
// ex (nil: classic pairwise), then reassemble in source-rank order with the
// retained local run spliced in at this rank's position — which is what
// preserves the global concatenated order. It releases sc. When reuse is
// non-nil its arrays are recycled for the output (it must not alias s).
func (sc *balScratch) deliver(r comm.Transport, s, reuse *particle.Store, ex *comm.Exchanger) *particle.Store {
	recv := ex.Exchange(r, sc.send, sc.counts)
	keepLo, keepHi := sc.keepLo, sc.keepHi
	balPool.Put(sc)

	size := keepHi - keepLo
	for _, w := range recv {
		size += len(w) / s.WireFloats()
	}
	out := resetStore(&reuse, size, s)
	for src := 0; src < r.Size(); src++ {
		if src == r.Rank() {
			for k := keepLo; k < keepHi; k++ {
				out.AppendFrom(s, k)
			}
			continue
		}
		absorb(r, out, recv[src])
	}
	return out
}

// absorb unmarshals one received wire buffer onto out, charges the
// unpacking and returns the buffer to the wire pool.
func absorb(r comm.Transport, out *particle.Store, w []float64) {
	if len(w) == 0 {
		return
	}
	if err := out.AppendWire(w); err != nil {
		panic(err)
	}
	r.Compute(len(w) / out.WireFloats() * packWorkPerParticle)
	wire.Put(w)
}

// loadBalanceInto equalises particle counts across ranks while preserving
// the global concatenated order: local particle i (at global position
// offset+i) moves to the BLOCK owner of that position. Requires that the
// per-rank stores concatenate to a globally key-sorted sequence, and
// preserves that property. When reuse is non-nil its arrays are recycled
// for the output (it must not alias s); when nil a fresh store is returned,
// or s itself on the p = 1 / empty fast path. ex selects the exchange
// protocol (nil: classic pairwise).
func loadBalanceInto(r comm.Transport, s, reuse *particle.Store, ex *comm.Exchanger) *particle.Store {
	p := r.Size()
	n := s.Len()
	total := comm.AllreduceSumInt(r, n)
	if p == 1 || total == 0 {
		if reuse == nil {
			return s
		}
		// The caller wants its scratch arrays back in play: hand s's
		// contents to reuse in O(1). s is internal scratch on this path
		// (see Incremental.RedistributeWeighted), so emptying it is fine.
		particle.SwapContents(resetStore(&reuse, 0, s), s)
		return reuse
	}
	offset := comm.ScanSumInt(r, n)

	sc := getBalScratch(p, 0)
	// Consecutive positions map to non-decreasing owners, so the local
	// range splits into contiguous runs per destination.
	i := 0
	for i < n {
		d := mesh.BlockOwner(total, p, offset+i)
		_, hi := mesh.BlockRange(total, p, d)
		runEnd := hi - offset
		if runEnd > n {
			runEnd = n
		}
		sc.route(r, s, d, i, runEnd)
		i = runEnd
	}
	return sc.deliver(r, s, reuse, ex)
}
