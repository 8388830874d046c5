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
// The struct additionally owns all scratch of the redistribution hot path
// (classification lists, marshal buffers, the intermediate stores and the
// two output slots), so steady-state redistributions allocate nothing in
// the classify/marshal inner loop. Every store is sized from the count it
// is about to receive before the first append and filled by bulk column
// copies, one per particle and stage; a store reallocates only when a call
// needs more room than any before it (as the first call into each output
// slot does).
type Incremental struct {
	// L is the number of buckets the local array is divided into.
	L int
	// localBound[b] is the smallest key of bucket b at the last
	// redistribution (length L; localBound[0] is the rank's lower key).
	localBound []float64
	// upper is the largest key held at the last redistribution.
	upper float64

	// Classification scratch: per-bucket and per-destination index lists,
	// reused (truncated, never freed) across redistributions.
	bucketOf [][]int
	sendIdx  [][]int
	// side holds the out-of-order particles of one bucket (see
	// sortNearlySorted).
	side []int
	// Marshal scratch: per-destination buffer headers and element counts.
	send   [][]float64
	counts []int
	// Intermediate stores, purely internal to Redistribute.
	kept, recvS, merged *particle.Store
	// Output slots: Redistribute alternates between them so the store it
	// returned last time (usually this call's input) is never clobbered.
	outA, outB *particle.Store
	// pool spreads the received-run radix sort over the rank's
	// shared-memory workers (nil: one). Results are bit-identical either way.
	pool *par.Pool
	// ex, when non-nil, routes the all-to-many exchanges through a
	// topology-native protocol (systolic ring, sparse hybrid) instead of
	// the classic pairwise schedule. The redistributed population is
	// identical either way.
	ex *comm.Exchanger
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
	return &Incremental{L: l, localBound: make([]float64, l), bucketOf: make([][]int, l)}
}

// SetPool attaches a shared-memory worker pool used to parallelise the
// local radix sorts inside Redistribute (nil detaches it). Safe to call any
// time between redistributions; the sorted output is identical either way.
func (inc *Incremental) SetPool(p *par.Pool) { inc.pool = p }

// SetExchanger attaches an all-to-many exchange protocol used by
// Redistribute (nil detaches it, reverting to the classic pairwise
// exchange). Safe to call any time between redistributions; the
// redistributed population is identical for every protocol.
func (inc *Incremental) SetExchanger(ex *comm.Exchanger) { inc.ex = ex }

// Prime records bucket boundaries from a locally sorted store, preparing
// for the next Redistribute call (Figure 12, lines 4–6 of
// Particle_Redistribution).
func (inc *Incremental) Prime(s *particle.Store) {
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

// Bounds is a snapshot of the remembered bucket state: the boundary table
// plus the upper key. A caller that may discard a redistribution (e.g. the
// pic's redistribution degrading after a failed exchange) snapshots before the
// attempt and restores afterwards, since Redistribute reprimes the bounds
// from its output before the caller can decide to keep it.
type Bounds struct {
	localBound []float64
	upper      float64
}

// SnapshotBounds captures the current bucket boundaries and upper key.
func (inc *Incremental) SnapshotBounds() Bounds {
	return Bounds{localBound: append([]float64(nil), inc.localBound...), upper: inc.upper}
}

// RestoreBounds reinstates a snapshot taken by SnapshotBounds, as if the
// Redistribute calls since then had not happened. The particle store the
// caller kept must be the one the snapshot was taken against (Redistribute
// never modifies its input store, so rolling back is pairing the old store
// with its old bounds).
func (inc *Incremental) RestoreBounds(b Bounds) {
	copy(inc.localBound, b.localBound)
	inc.upper = b.upper
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
// The returned store draws on buffers owned by this Incremental: it stays
// valid until the second following call (callers that only keep the latest
// store — the usual pattern — are unaffected). The input store is never
// modified.
func (inc *Incremental) RedistributeWeighted(r comm.Transport, s *particle.Store, wf func(key float64) float64) (*particle.Store, Stats) {
	p := r.Size()
	n := s.Len()

	// Line 1: global concatenation of every rank's upper key bound.
	globalUpper := comm.AllgatherFloat64s(r, []float64{inc.upper})

	// Lines 3–14: classify, then marshal the off-processor particles.
	st := inc.classify(r, s, globalUpper)
	send, counts := inc.pack(r, s)

	// Lines 15–20: exchange the traffic table, then all-to-many.
	recv := inc.ex.Exchange(r, send, counts)

	// Line 21: collect and sort the received particles.
	recvStore := resetStore(&inc.recvS, received(recv, s.WireFloats()), s)
	for src := 0; src < p; src++ {
		if src != r.Rank() {
			absorb(r, recvStore, recv[src])
		}
	}
	LocalSort(r, recvStore, inc.pool)

	// Lines 22–23: sort each bucket locally. Buckets are key-disjoint and
	// ordered, so concatenating them yields a sorted run. The charge is the
	// comparison sort's, whatever the particles' order.
	kept := resetStore(&inc.kept, n, s)
	for b := 0; b < inc.L; b++ {
		idx := inc.bucketOf[b]
		inc.side = sortNearlySorted(s, idx, inc.side)
		if len(idx) > 1 {
			r.Compute(len(idx) * ilog2(len(idx)) * compareWork)
		}
		kept.AppendIndices(s, idx)
	}

	// Line 24: merge the kept run with the received run.
	merged := mergeSortedInto(r, kept, recvStore, resetStore(&inc.merged, kept.Len()+recvStore.Len(), s))

	// Order-maintaining (possibly weighted) balance into the output slot
	// that does not alias the caller's store, then remember the new
	// boundaries.
	out := weightedBalanceInto(r, merged, inc.outSlot(s), wf, inc.ex)
	inc.Prime(out)
	return out, st
}

// classify sorts every particle of s into its bucket or destination-rank
// list (Figure 12 lines 3–14), filling inc.bucketOf and inc.sendIdx from
// reused scratch. It charges the modelled classification δ but performs no
// communication, so its steady-state allocation count is exactly zero.
func (inc *Incremental) classify(r comm.Transport, s *particle.Store, globalUpper []float64) Stats {
	n := s.Len()
	var st Stats
	for b := range inc.bucketOf {
		inc.bucketOf[b] = inc.bucketOf[b][:0]
	}
	if cap(inc.sendIdx) < r.Size() {
		inc.sendIdx = make([][]int, r.Size())
	}
	inc.sendIdx = inc.sendIdx[:r.Size()]
	for d := range inc.sendIdx {
		inc.sendIdx[d] = inc.sendIdx[d][:0]
	}
	for i := 0; i < n; i++ {
		key := s.Key[i]
		// The particle's previous bucket is its position's bucket.
		prevB := i * inc.L / n
		if inBucket(inc.localBound, inc.upper, prevB, key) {
			inc.bucketOf[prevB] = append(inc.bucketOf[prevB], i)
			st.SameBucket++
			r.Compute(classifyWorkSameBucket)
			continue
		}
		if key >= inc.localBound[0] && key <= inc.upper {
			b := inc.bucketFor(key)
			inc.bucketOf[b] = append(inc.bucketOf[b], i)
			st.OtherBucket++
			r.Compute(classifyWorkLocal)
			continue
		}
		dest := searchOwner(globalUpper, key)
		if dest == r.Rank() {
			// Keys outside the remembered bounds can still map to this
			// rank (e.g. below the old lower bound but above the previous
			// rank's upper, or above every recorded bound on the last
			// rank); clamp into the nearest bucket.
			inc.bucketOf[inc.bucketFor(key)] = append(inc.bucketOf[inc.bucketFor(key)], i)
			st.OtherBucket++
			r.Compute(classifyWorkLocal)
			continue
		}
		inc.sendIdx[dest] = append(inc.sendIdx[dest], i)
		st.OffProc++
		r.Compute(classifyWorkRemote)
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
	if cap(inc.send) < p {
		inc.send = make([][]float64, p)
		inc.counts = make([]int, p)
	}
	inc.send = inc.send[:p]
	inc.counts = inc.counts[:p]
	for d := 0; d < p; d++ {
		inc.send[d] = nil
		inc.counts[d] = 0
		if len(inc.sendIdx[d]) > 0 {
			inc.send[d] = s.MarshalIndices(wire.Get(len(inc.sendIdx[d])*wf), inc.sendIdx[d])
			inc.counts[d] = len(inc.send[d])
			r.Compute(len(inc.sendIdx[d]) * packWorkPerParticle)
		}
	}
	return inc.send, inc.counts
}

// resetStore empties (or creates) an internal scratch store with room for
// capHint particles and the species constants of ref.
func resetStore(slot **particle.Store, capHint int, ref *particle.Store) *particle.Store {
	if *slot == nil {
		*slot = ref.NewLike(capHint)
		return *slot
	}
	s := *slot
	s.Truncate(0)
	s.Grow(capHint)
	s.Charge, s.Mass = ref.Charge, ref.Mass
	return s
}

// received returns the number of particles in a set of wire buffers.
func received(recv [][]float64, wf int) int {
	words := 0
	for _, w := range recv {
		words += len(w)
	}
	return words / wf
}

// outSlot returns whichever of the two output stores does not alias s, so
// the store handed to the caller last time survives this call.
func (inc *Incremental) outSlot(s *particle.Store) *particle.Store {
	if inc.outA == nil {
		inc.outA = s.NewLike(0)
	}
	if inc.outB == nil {
		inc.outB = s.NewLike(0)
	}
	if s == inc.outA {
		return inc.outB
	}
	return inc.outA
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

// mergeSortedInto merges a and b (each locally sorted) into out, which must
// be empty and alias neither input. It compares keys only: on equal keys
// the particle of a (the kept run) goes first, whatever the ids. Runs are
// copied in bulk.
func mergeSortedInto(r comm.Transport, a, b, out *particle.Store) *particle.Store {
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		i0 := i
		for i < a.Len() && !(b.Key[j] < a.Key[i]) {
			i++
		}
		out.AppendRange(a, i0, i)
		if i == a.Len() {
			break
		}
		j0 := j
		for j < b.Len() && b.Key[j] < a.Key[i] {
			j++
		}
		out.AppendRange(b, j0, j)
	}
	out.AppendRange(a, i, a.Len())
	out.AppendRange(b, j, b.Len())
	r.Compute((a.Len() + b.Len()) * compareWork)
	return out
}
