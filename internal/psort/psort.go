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

	"picpar/internal/comm"
	"picpar/internal/mesh"
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
// The real work is a radix sort plus one permutation apply (see radix.go)
// that gathers into one of the Incremental's sets and trades arrays with s,
// with the radix passes spread over the attached pool, but the simulated
// charge stays the comparison-sort formula n·⌈log₂ n⌉·compareWork so all
// paper results are unchanged. The sorted order and the simulated charge
// are identical for every pool size, and once the sets and the sorter
// have grown to the population a sort allocates nothing.
func (inc *Incremental) LocalSort(r comm.Transport, s *particle.Store) {
	inc.sortStore(s)
	chargeSort(r, s.Len())
}

// chargeSort charges the comparison sort of n particles, n·⌈log₂ n⌉
// compare steps — the price of every local sort in the model, whatever
// real algorithm (radix, merge, insertion) put them in order.
func chargeSort(r comm.Transport, n int) {
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

// SampleSort performs a full regular-sampling sample sort of the global
// particle population and returns this rank's sorted, balanced share. This
// is the paper's initial "distribution algorithm"; the incremental sort is
// the cheaper alternative for subsequent redistributions. It is Distribute
// on a fresh Incremental over the classic pairwise exchange.
func SampleSort(r comm.Transport, s *particle.Store) *particle.Store {
	return NewIncremental(0).Distribute(r, s, nil)
}

// Distribute is the sample sort on the Incremental's sets and scratch,
// with the local radix sort spread over the attached pool, the received
// runs merged, and the all-to-many halves routed through ex (nil: the classic pairwise
// protocol). It consumes s: every particle leaves s in a message (this
// rank's own run included), so s takes the received particles in their
// place, and the balance delivers that whole store as one run into another
// set (with one rank or no particles at all, the share is s itself). The
// returned distribution is identical for every pool size and every
// exchanger — only the message schedule (and on non-classic protocols the
// modelled network charges) differs.
func (inc *Incremental) Distribute(r comm.Transport, s *particle.Store, ex *comm.Exchanger) *particle.Store {
	p := r.Size()
	inc.LocalSort(r, s)
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
	chargeSort(r, len(all))
	// p−1 splitters: every p-th sample.
	splitters := make([]float64, p-1)
	for k := 1; k < p; k++ {
		splitters[k-1] = all[k*p]
	}
	wire.Put(all)

	// Partition the sorted local array at the splitters.
	cuts := make([]int, p+1)
	cuts[p] = n
	for k := 0; k < p-1; k++ {
		cuts[k+1] = sort.SearchFloat64s(s.Key, splitters[k])
	}
	r.Compute((p - 1) * ilog2(n+1) * compareWork)

	wf := s.WireFloats()
	send, counts := inc.sendScratch(p)
	for d := 0; d < p; d++ {
		lo, hi := cuts[d], cuts[d+1]
		if hi > lo {
			send[d] = s.MarshalRange(wire.Get((hi-lo)*wf), lo, hi)
			counts[d] = len(send[d])
			r.Compute((hi - lo) * packWorkPerParticle)
		}
	}
	recv := ex.Exchange(r, send, counts)

	// Every source sent a contiguous range of its sorted array, so s
	// receives p sorted runs back to back; cuts now bounds them. Merging
	// the runs orders s, charged as the comparison sort it replaces.
	reserve(s, received(recv, wf))
	for src := 0; src < p; src++ {
		absorb(r, s, recv[src])
		cuts[src+1] = s.Len()
	}
	inc.mergeRuns(s, cuts)
	chargeSort(r, s.Len())
	return inc.loadBalanceInto(r, inc.whole(s), inc.mem.free(s, nil, 0), ex)
}

// sendScratch clears and returns the per-destination wire buffers and
// element counts of an all-to-many over p ranks, and forgets the run a
// previous balance retained.
func (inc *Incremental) sendScratch(p int) ([][]float64, []int) {
	inc.send = fit(inc.send, p)
	inc.counts = fit(inc.counts, p)
	clear(inc.send)
	clear(inc.counts)
	inc.keepLo, inc.keepHi = 0, 0
	return inc.send, inc.counts
}

// route assigns positions [lo, hi) of the local sequence q to rank d: the
// run this rank owns is retained where it is, any other is marshalled (and
// charged) into a pooled wire buffer. Owners are monotone in position, so a
// cut preamble calls route once per destination, in ascending d.
func (inc *Incremental) route(r comm.Transport, q seq, d, lo, hi int) {
	if d == r.Rank() {
		inc.keepLo, inc.keepHi = lo, hi
		return
	}
	buf := wire.Get((hi - lo) * q[0].s.WireFloats())
	q.each(lo, hi, func(part run) { buf = part.marshal(buf) })
	inc.send[d] = buf
	inc.counts[d] = len(buf)
	r.Compute((hi - lo) * packWorkPerParticle)
}

// deliver is the tail both balances share: exchange the routed runs through
// ex (nil: classic pairwise), then reassemble into out in source-rank order
// with the retained local run spliced in at this rank's position — which
// is what preserves the global concatenated order. out must hold none of
// q's particles.
func (inc *Incremental) deliver(r comm.Transport, q seq, out *particle.Store, ex *comm.Exchanger) *particle.Store {
	recv := ex.Exchange(r, inc.send, inc.counts)
	reserve(out, inc.keepHi-inc.keepLo+received(recv, out.WireFloats()))
	for src := 0; src < r.Size(); src++ {
		if src == r.Rank() {
			q.each(inc.keepLo, inc.keepHi, func(part run) { part.appendTo(out) })
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
// the global concatenated order: local particle i of q (at global position
// offset+i) moves to the BLOCK owner of that position, and the rank's new
// share is built in out (which must hold none of q's particles). Requires
// that the per-rank sequences concatenate to a globally key-sorted one,
// and preserves that property. With one rank or no particles nothing moves
// and q comes back as one store (see copyTo). ex selects the exchange
// protocol (nil: classic pairwise).
func (inc *Incremental) loadBalanceInto(r comm.Transport, q seq, out *particle.Store, ex *comm.Exchanger) *particle.Store {
	p := r.Size()
	n := q.len()
	total := comm.AllreduceSumInt(r, n)
	if p == 1 || total == 0 {
		return q.copyTo(out)
	}
	offset := comm.ScanSumInt(r, n)

	inc.sendScratch(p)
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
		inc.route(r, q, d, i, runEnd)
		i = runEnd
	}
	return inc.deliver(r, q, out, ex)
}
