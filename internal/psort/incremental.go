package psort

import (
	"fmt"
	"math"
	"sort"

	"picpar/internal/comm"
	"picpar/internal/par"
	"picpar/internal/particle"
	"picpar/internal/wire"
)

// Incremental is the bucket-based incremental sorting state of one rank
// (the paper's Figure 12). Between redistributions it remembers the bucket
// boundaries of the last sorted order; the next redistribution classifies
// every particle against those remembered bounds — most particles have
// moved little and fall into the same bucket, making reclassification far
// cheaper than a full sort.
//
// The struct also owns the rank's particle memory: three column sets that
// every particle array it produces is built in (see sets), plus the sort,
// classification, exchange and balance scratch. Every buffer is sized
// from the count it is about to hold, with headroom, and only grows when a
// call needs more room than any before it, so steady-state calls allocate
// nothing per particle. A store returned by any method (or handed out by
// Spare) stays valid until the next call that does not take it as input.
type Incremental struct {
	// L is the number of buckets the local array is divided into.
	L int
	// localBound[b] is the smallest key of bucket b at the last
	// redistribution (length L; localBound[0] is the rank's lower key).
	localBound []float64
	// upper is the largest key held at the last redistribution.
	upper float64

	// Classification scratch (see classify): every particle's class, the
	// particle indices grouped by class, and the start of each group.
	cls   []int32
	order []int
	cut   []int
	// side holds the out-of-order particles of one bucket (see
	// sortNearlySorted).
	side []int
	// recv indexes the received run in (Key, ID) order, and merged holds
	// the kept/received merge as runs (see merge), or a whole store.
	recv   []int
	merged seq
	// Exchange scratch: per-destination buffer headers and element counts
	// of every all-to-many this rank starts, and the local run a balance
	// retains.
	send           [][]float64
	counts         []int
	keepLo, keepHi int
	// Weighted balance scratch: raw sanitized and quantized weights, and
	// the cuts.
	w        []float64
	iw, cuts []int64

	mem sets
	so  sorter
	// pool spreads the radix sorts over the rank's shared-memory workers
	// (nil: one). Results are bit-identical either way.
	pool *par.Pool
	// ex, when non-nil, routes the redistribution's all-to-many exchanges
	// through a topology-native protocol (systolic ring, sparse hybrid)
	// instead of the classic pairwise schedule. The redistributed
	// population is identical either way.
	ex *comm.Exchanger
}

// sets is a rank's particle memory. A call of the Incremental holds at
// most three stores at once — its input and two it builds: the received
// run and the balanced share in a redistribution, the sorted run and the
// balanced share in the sample sort, a store and its permutation target in
// a local sort — so three sets rotate by pointer and none is ever the input
// of the call that overwrites it. Sets are picked by best fit, so a
// redistribution keeps two full-size sets and one sized to what arrives.
type sets [3]*particle.Store

// grown is the size of a buffer that has to grow to hold n: n + n/8, so a
// population that creeps upwards regrows geometrically, not on every call,
// but at least n + minHeadroom, so a small one — the received run and its
// index lists, where n/8 is a handful — does not regrow at almost every
// new high-water mark. Full shares of 2 048 or more keep n + n/8.
func grown(n int) int { return n + max(n/8, minHeadroom) }

const minHeadroom = 256

// free returns the set that best fits n particles among those that are
// neither a nor b — the smallest that holds n already, else the largest,
// grown — emptied, with the layout and species constants of a. A slot gets
// a new set only when no existing one is free.
func (m *sets) free(a, b *particle.Store, n int) *particle.Store {
	best := -1
	for i, s := range m {
		if s == nil || s == a || s == b {
			continue
		}
		if best < 0 || betterFit(cap(s.X), cap(m[best].X), n) {
			best = i
		}
	}
	if best >= 0 {
		s := m[best]
		reserve(s, n)
		s.Charge, s.Mass = a.Charge, a.Mass
		return s
	}
	for i, s := range m {
		if s == nil {
			m[i] = a.NewLike(grown(n))
			return m[i]
		}
	}
	panic("psort: no free particle set")
}

// betterFit reports whether capacity c fits n particles better than
// capacity d: it holds n and is smaller, or neither holds n and it is
// larger.
func betterFit(c, d, n int) bool {
	switch {
	case (c >= n) != (d >= n):
		return c >= n
	case c >= n:
		return c < d
	default:
		return c > d
	}
}

// adopt makes s one of the sets if a slot is still empty.
func (m *sets) adopt(s *particle.Store) {
	for i, t := range m {
		if t == s {
			return
		}
		if t == nil {
			m[i] = s
			return
		}
	}
}

// reserve empties s and makes room for n particles: a set too small is
// replaced by one sized grown(n), its old arrays dropped.
func reserve(s *particle.Store, n int) {
	if cap(s.X) < n {
		*s = *s.NewLike(grown(n))
		return
	}
	s.Truncate(0)
}

// fit returns buf resliced to n, reallocated to grown(n) when too short.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, n, grown(n))
	}
	return buf[:n]
}

// DefaultBuckets is a reasonable bucket count per rank: fine enough that a
// same-bucket hit pins a particle to a small sorted run, coarse enough that
// the boundary table stays tiny.
const DefaultBuckets = 16

// NewIncremental creates incremental-sort state with L buckets (0 means
// DefaultBuckets). Call Prime after the initial distribution.
func NewIncremental(l int) *Incremental {
	if l <= 0 {
		l = DefaultBuckets
	}
	return &Incremental{L: l, localBound: make([]float64, l)}
}

// SetPool attaches a shared-memory worker pool used to parallelise the
// local radix sorts (nil detaches it). Safe to call any time between
// calls; the sorted output is identical either way.
func (inc *Incremental) SetPool(p *par.Pool) { inc.pool = p }

// SetExchanger attaches an all-to-many exchange protocol used by
// Redistribute (nil detaches it, reverting to the classic pairwise
// exchange). Safe to call any time between redistributions; the
// redistributed population is identical for every protocol.
func (inc *Incremental) SetExchanger(ex *comm.Exchanger) { inc.ex = ex }

// Prime records bucket boundaries from a locally sorted store, preparing
// for the next Redistribute call (Figure 12, lines 4–6 of
// Particle_Redistribution). A store built elsewhere (a restored
// checkpoint's) takes the place of a set not yet created, so it joins the
// rotation instead of costing a fourth.
func (inc *Incremental) Prime(s *particle.Store) {
	inc.mem.adopt(s)
	n := s.Len()
	for b := 0; b < inc.L; b++ {
		if n == 0 {
			inc.localBound[b] = math.Inf(1)
			continue
		}
		i := b * n / inc.L
		inc.localBound[b] = s.Key[i]
	}
	if n == 0 {
		inc.upper = math.Inf(-1)
	} else {
		inc.upper = s.Key[n-1]
	}
}

// ExportBounds appends the remembered bucket boundaries followed by the
// upper key (L+1 values) to dst and returns it — the checkpoint form of
// the incremental-sort state.
func (inc *Incremental) ExportBounds(dst []float64) []float64 {
	dst = append(dst, inc.localBound...)
	return append(dst, inc.upper)
}

// ImportBounds reinstates boundaries previously captured by ExportBounds,
// replacing the current bucket state wholesale.
func (inc *Incremental) ImportBounds(vals []float64) error {
	if len(vals) != inc.L+1 {
		return fmt.Errorf("psort: bounds import of %d values into %d buckets (want %d)",
			len(vals), inc.L, inc.L+1)
	}
	copy(inc.localBound, vals[:inc.L])
	inc.upper = vals[inc.L]
	return nil
}

// Stats reports what the classification pass observed, for ablation and
// instrumentation.
type Stats struct {
	SameBucket  int // particles still in their previous bucket
	OtherBucket int // particles moved to a different local bucket
	OffProc     int // particles that left the rank
}

// Redistribute is RedistributeWeighted with the nil weight: the final
// order-maintaining balance equalises particle counts.
func (inc *Incremental) Redistribute(r comm.Transport, s *particle.Store) (*particle.Store, Stats) {
	return inc.RedistributeWeighted(r, s, nil)
}

// RedistributeWeighted performs one bucket-based incremental redistribution
// and returns the rank's new sorted, balanced store plus classification
// stats. The final order-maintaining balance cuts at equal cumulative
// weight under wf (see weightedBalanceInto); a nil wf is the equal-count
// cut. Requires keys to be already up to date (Hilbert_Base_Indexing done)
// and Prime to have been called on the previous order.
//
// The input store is never modified, and the result is one of the
// Incremental's sets other than s, so the caller's store stays valid until
// its next call. The received particles land in a third set sized to what
// arrived; the merge is a list of runs over s and that set, so every
// particle is copied once, into the result or a message.
func (inc *Incremental) RedistributeWeighted(r comm.Transport, s *particle.Store, wf func(key float64) float64) (*particle.Store, Stats) {
	p := r.Size()

	// Line 1: global concatenation of every rank's upper key bound.
	globalUpper := comm.AllgatherFloat64s(r, []float64{inc.upper})

	// Lines 3–14: classify, then marshal the off-processor particles.
	st := inc.classify(r, s, globalUpper)
	wire.Put(globalUpper)
	send, counts := inc.pack(r, s)

	// Lines 15–20: exchange the traffic table, then all-to-many.
	recv := inc.ex.Exchange(r, send, counts)

	// Line 21: collect the received particles and sort them through an
	// index list. The balanced share takes the free set that best fits a
	// full share, the received run the other one.
	out := inc.mem.free(s, nil, s.Len())
	got := inc.mem.free(s, out, received(recv, s.WireFloats()))
	for src := 0; src < p; src++ {
		if src != r.Rank() {
			absorb(r, got, recv[src])
		}
	}
	m := got.Len()
	inc.recv = fit(inc.recv, m)
	for i := range inc.recv {
		inc.recv[i] = i
	}
	inc.so.sortIndices(got, inc.recv)
	chargeSort(r, m)

	// Lines 22–23: sort each bucket locally. Buckets are key-disjoint and
	// ordered, so the bucket groups of inc.order index a sorted kept run
	// of s. The charge is the comparison sort's, whatever the particles'
	// order.
	for b := 0; b < inc.L; b++ {
		idx := inc.order[inc.cut[b]:inc.cut[b+1]]
		inc.side = inc.so.sortNearlySorted(s, idx, inc.side)
		chargeSort(r, len(idx))
	}
	kept := inc.order[:inc.cut[inc.L]]

	// Line 24: merge the kept run with the received run, as runs. Then the
	// order-maintaining (possibly weighted) balance routes and delivers
	// straight from them into out, and the new boundaries are remembered.
	q := inc.merge(r, s, kept, got, inc.recv)
	out = inc.weightedBalanceInto(r, q, out, wf, inc.ex)
	inc.Prime(out)
	return out, st
}

// classify assigns every particle of s a class (Figure 12 lines 3–14):
// its bucket b < L, or L+d for an off-processor particle bound for rank
// d. It then groups the particle indices by class, ascending within each
// group, into inc.order, with group c at inc.order[inc.cut[c]:inc.cut[c+1]]
// — a counting sort into buffers sized from the particle count once. It
// charges the modelled classification δ, one ComputeRepeat per run of
// particles of equal cost in particle order — the clock and ledger
// additions of one Compute per particle — but performs no communication,
// so its steady-state allocation count is exactly zero.
func (inc *Incremental) classify(r comm.Transport, s *particle.Store, globalUpper []float64) Stats {
	n := s.Len()
	classes := inc.L + r.Size()
	inc.cls = fit(inc.cls, n)
	inc.order = fit(inc.order, n)
	inc.cut = fit(inc.cut, classes+1)
	clear(inc.cut)
	var st Stats
	// b is position i's bucket, i·L/n, and next the first position of the
	// bucket after it; work and run are the pending run of charges.
	b, next := 0, (n+inc.L-1)/inc.L
	work, run := 0, 0
	for i := 0; i < n; i++ {
		for i >= next {
			b++
			next = ((b+1)*n + inc.L - 1) / inc.L
		}
		key := s.Key[i]
		// The particle's previous bucket is its position's bucket.
		c, w := b, classifyWorkSameBucket
		switch {
		case inBucket(inc.localBound, inc.upper, c, key):
			st.SameBucket++
		case key >= inc.localBound[0] && key <= inc.upper:
			c, w = inc.bucketFor(key), classifyWorkLocal
			st.OtherBucket++
		default:
			c, w = searchOwner(globalUpper, key), classifyWorkRemote
			if c == r.Rank() {
				// Keys outside the remembered bounds can still map to
				// this rank (e.g. below the old lower bound but above the
				// previous rank's upper, or above every recorded bound on
				// the last rank); clamp into the nearest bucket.
				c, w = inc.bucketFor(key), classifyWorkLocal
				st.OtherBucket++
				break
			}
			c += inc.L
			st.OffProc++
		}
		if w != work {
			r.ComputeRepeat(work, run)
			work, run = w, 0
		}
		run++
		inc.cls[i] = int32(c)
		inc.cut[c]++
	}
	r.ComputeRepeat(work, run)
	// cut[c] becomes the end of group c, then, filled from the back, its
	// start; cut[classes] is n.
	for c := 1; c < classes; c++ {
		inc.cut[c] += inc.cut[c-1]
	}
	inc.cut[classes] = n
	for i := n - 1; i >= 0; i-- {
		c := inc.cls[i]
		inc.cut[c]--
		inc.order[inc.cut[c]] = i
	}
	return st
}

// pack marshals the off-processor particles found by classify into pooled
// wire buffers, one per destination with traffic (Figure 12 lines 15–16).
// The returned buffers transfer ownership with the messages; the receiving
// ranks return them to the wire pool. With a warm pool, pack allocates
// nothing.
func (inc *Incremental) pack(r comm.Transport, s *particle.Store) ([][]float64, []int) {
	p := r.Size()
	wf := s.WireFloats()
	send, counts := inc.sendScratch(p)
	for d := 0; d < p; d++ {
		idx := inc.order[inc.cut[inc.L+d]:inc.cut[inc.L+d+1]]
		if len(idx) > 0 {
			send[d] = s.MarshalIndices(wire.Get(len(idx)*wf), idx)
			counts[d] = len(send[d])
			r.Compute(len(idx) * packWorkPerParticle)
		}
	}
	return send, counts
}

// Spare returns one of the Incremental's sets, other than s, emptied, with
// room for n particles and s's layout and species constants: the target of
// a store the caller builds itself, such as an Eulerian migration.
func (inc *Incremental) Spare(s *particle.Store, n int) *particle.Store {
	return inc.mem.free(s, nil, n)
}

// received returns the number of particles in a set of wire buffers.
func received(recv [][]float64, wf int) int {
	words := 0
	for _, w := range recv {
		words += len(w)
	}
	return words / wf
}

// bucketFor returns the bucket whose remembered range admits key, clamping
// keys outside the recorded bounds into the first or last bucket.
func (inc *Incremental) bucketFor(key float64) int {
	i := sort.SearchFloat64s(inc.localBound, key)
	if i == inc.L {
		return inc.L - 1
	}
	if inc.localBound[i] == key || i == 0 {
		return i
	}
	return i - 1
}

// inBucket reports whether key belongs to bucket b under the remembered
// bounds: localBound[b] ≤ key < next bound (or ≤ upper for the last).
func inBucket(bounds []float64, upper float64, b int, key float64) bool {
	if key < bounds[b] {
		return false
	}
	if b+1 < len(bounds) {
		return key < bounds[b+1]
	}
	return key <= upper
}

// searchOwner returns the lowest rank whose recorded upper bound admits
// key; keys above all bounds belong to the last rank.
func searchOwner(globalUpper []float64, key float64) int {
	d := sort.SearchFloat64s(globalUpper, key)
	if d >= len(globalUpper) {
		d = len(globalUpper) - 1
	}
	return d
}

// merge records the merge of the kept run — the particles of s at the
// indices kept, in that order, sorted — with the received run — got at the
// indices rcv, sorted — as runs in inc.merged, copying no particle. It
// compares keys only: on equal keys the kept particle goes first, whatever
// the ids.
func (inc *Incremental) merge(r comm.Transport, s *particle.Store, kept []int, got *particle.Store, rcv []int) seq {
	q := inc.merged[:0]
	i, j := 0, 0
	for i < len(kept) && j < len(rcv) {
		i0 := i
		for i < len(kept) && !(got.Key[rcv[j]] < s.Key[kept[i]]) {
			i++
		}
		q = q.add(s, kept[i0:i])
		if i == len(kept) {
			break
		}
		j0 := j
		for j < len(rcv) && got.Key[rcv[j]] < s.Key[kept[i]] {
			j++
		}
		q = q.add(got, rcv[j0:j])
	}
	q = q.add(s, kept[i:])
	q = q.add(got, rcv[j:])
	r.Compute((len(kept) + len(rcv)) * compareWork)
	inc.merged = q
	return q
}

// whole returns s as a one-run sequence.
func (inc *Incremental) whole(s *particle.Store) seq {
	inc.merged = append(inc.merged[:0], run{s: s, n: s.Len()})
	return inc.merged
}

// run is a slice of one store's particles: s at the indices idx, in that
// order, or the contiguous range s[lo:lo+n] when idx is nil.
type run struct {
	s     *particle.Store
	idx   []int
	lo, n int
}

// key returns the key of the run's k-th particle.
func (ru run) key(k int) float64 {
	if ru.idx != nil {
		return ru.s.Key[ru.idx[k]]
	}
	return ru.s.Key[ru.lo+k]
}

// marshal appends the run's particles to dst in wire layout.
func (ru run) marshal(dst []float64) []float64 {
	if ru.idx != nil {
		return ru.s.MarshalIndices(dst, ru.idx)
	}
	return ru.s.MarshalRange(dst, ru.lo, ru.lo+ru.n)
}

// appendTo copies the run's particles onto the end of out.
func (ru run) appendTo(out *particle.Store) {
	if ru.idx != nil {
		out.AppendIndices(ru.s, ru.idx)
		return
	}
	out.AppendRange(ru.s, ru.lo, ru.lo+ru.n)
}

// seq is a key-sorted particle sequence held as consecutive runs of the
// stores its particles sit in — a redistribution's kept/received merge, or
// the sample sort's whole store — so a balance routes and delivers each
// particle straight from where it is.
type seq []run

// add appends the particles of s at the indices idx as a run, if any.
func (q seq) add(s *particle.Store, idx []int) seq {
	if len(idx) == 0 {
		return q
	}
	return append(q, run{s: s, idx: idx, n: len(idx)})
}

// len returns the number of particles in q.
func (q seq) len() int {
	n := 0
	for _, ru := range q {
		n += ru.n
	}
	return n
}

// each calls f, in order, on the parts of q's runs that hold positions
// [lo, hi) of the sequence.
func (q seq) each(lo, hi int, f func(part run)) {
	for _, ru := range q {
		if hi <= 0 {
			return
		}
		if lo < ru.n {
			a, b := max(lo, 0), min(hi, ru.n)
			part := run{s: ru.s, lo: ru.lo + a, n: b - a}
			if ru.idx != nil {
				part.idx, part.lo = ru.idx[a:b], 0
			}
			f(part)
		}
		lo -= ru.n
		hi -= ru.n
	}
}

// copyTo returns q as one store: the store q is the whole of, if it is
// one, else out, emptied and filled with q's particles.
func (q seq) copyTo(out *particle.Store) *particle.Store {
	if len(q) == 1 && q[0].idx == nil && q[0].lo == 0 && q[0].n == q[0].s.Len() {
		return q[0].s
	}
	n := q.len()
	reserve(out, n)
	q.each(0, n, func(part run) { part.appendTo(out) })
	return out
}
