// Radix and merge replacements for the comparison sorts on the particle
// hot path. Ordering is exactly the (Key, ID) order of particle.Store's
// Less — ids are unique, so the sorted order is the same unique sequence
// sort.Sort produced — and only the real (wall-clock) cost changes; every
// simulated δ charge is computed from the same formulas as before.
package psort

import (
	"slices"
	"sort"

	"picpar/internal/particle"
	"picpar/internal/radix"
)

// sorter holds the reusable buffers of a rank's radix sorts and run
// merges: the (key-bits, id-bits, index) triples, the radix ping-pong
// scratch and the merge heap. Each Incremental owns one, so its buffers
// live as long as the rank.
type sorter struct {
	hi, lo []uint64
	idx    []int32
	rs     radix.Scratch
	// heap is mergeRuns' scratch: the runs not yet drained.
	heap []mergeRun
}

func (so *sorter) grow(n int) {
	so.hi = fit(so.hi, n)
	so.lo = fit(so.lo, n)
	so.idx = fit(so.idx, n)
}

// smallStoreCutoff is the store size below which sort.Sort's lower setup
// cost wins over building the bit arrays.
const smallStoreCutoff = 32

// sortStore sorts s by (Key, ID) — the exact order of sort.Sort(s) — with
// the radix passes spread over the attached pool; the permutation gathers
// into a set other than s. The resulting order is identical for every pool
// size (including nil).
func (inc *Incremental) sortStore(s *particle.Store) {
	n := s.Len()
	if n < smallStoreCutoff {
		sort.Sort(s)
		return
	}
	so := &inc.so
	so.grow(n)
	for i := 0; i < n; i++ {
		so.hi[i] = radix.Bits64(s.Key[i])
		so.lo[i] = radix.Bits64(s.ID[i])
		so.idx[i] = int32(i)
	}
	so.hi, so.lo, so.idx = radix.SortPairsPar(so.hi, so.lo, so.idx, &so.rs, inc.pool)
	s.ApplyPermutation(so.idx, inc.mem.free(s, nil, n))
}

// mergeRuns sorts s by (Key, ID) when it is the sorted runs
// s[ends[k]:ends[k+1]] back to back: a heap of the runs, ordered by their
// head particles, writes the merged order into the sorter's index scratch
// in O(n log runs), and the permutation gathers into a set other than s,
// as in sortStore. The order is the one sortStore gives.
func (inc *Incremental) mergeRuns(s *particle.Store, ends []int) {
	so := &inc.so
	h := runHeap{key: s.Key, id: s.ID, runs: slices.Grow(so.heap[:0], len(ends)-1)}
	for k := 0; k+1 < len(ends); k++ {
		if ends[k] < ends[k+1] {
			h.runs = append(h.runs, mergeRun{ends[k], ends[k+1]})
		}
	}
	so.heap = h.runs
	if len(h.runs) < 2 {
		return
	}
	for i := len(h.runs)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	n := s.Len()
	so.idx = fit(so.idx, n)
	for k := range so.idx {
		top := &h.runs[0]
		so.idx[k] = int32(top.pos)
		if top.pos++; top.pos == top.end {
			*top = h.runs[len(h.runs)-1]
			h.runs = h.runs[:len(h.runs)-1]
		}
		h.down(0)
	}
	s.ApplyPermutation(so.idx, inc.mem.free(s, nil, n))
}

// mergeRun is the part of one sorted run mergeRuns has not yet taken: the
// positions [pos, end).
type mergeRun struct{ pos, end int }

// runHeap is a binary min-heap of runs over one store's key and id
// columns, ordered by (Key, ID) of each run's head particle.
type runHeap struct {
	key, id []float64
	runs    []mergeRun
}

func (h *runHeap) less(a, b int) bool {
	i, j := h.runs[a].pos, h.runs[b].pos
	return h.key[i] < h.key[j] || h.key[i] == h.key[j] && h.id[i] < h.id[j]
}

// down restores the heap order below position i.
func (h *runHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.runs) {
			return
		}
		if c+1 < len(h.runs) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h.runs[i], h.runs[c] = h.runs[c], h.runs[i]
		i = c
	}
}

// sortIndices sorts idx so that the referenced particles are in (Key, ID)
// order — the per-bucket sort of the incremental redistribution. Small
// lists use an insertion sort on Less; larger ones go through the radix
// sort.
func (so *sorter) sortIndices(s *particle.Store, idx []int) {
	n := len(idx)
	if n < 2 {
		return
	}
	if n < radixIdxCutoff {
		for i := 1; i < n; i++ {
			v := idx[i]
			j := i - 1
			for j >= 0 && s.Less(v, idx[j]) {
				idx[j+1] = idx[j]
				j--
			}
			idx[j+1] = v
		}
		return
	}
	so.grow(n)
	for k, i := range idx {
		so.hi[k] = radix.Bits64(s.Key[i])
		so.lo[k] = radix.Bits64(s.ID[i])
		so.idx[k] = int32(k)
	}
	so.hi, so.lo, so.idx = radix.SortPairs(so.hi, so.lo, so.idx, &so.rs)
	// Permute idx by the sorted positions, reusing lo as the temporary
	// (it is dead after the sort).
	tmp := so.lo
	for k, p := range so.idx {
		tmp[k] = uint64(idx[p])
	}
	for k := range idx {
		idx[k] = int(tmp[k])
	}
}

// sortNearlySorted sorts idx into the (Key, ID) order of sortIndices but
// sorts only the particles whose order changed: every descent peels
// both of its elements onto side, leaving an ascending run in idx; side is
// sorted and merged back in from the tail. (Key, ID) is a total order, so
// the result is the one sortIndices gives. side is scratch, returned for
// reuse.
func (so *sorter) sortNearlySorted(s *particle.Store, idx, side []int) []int {
	side = side[:0]
	m := 0
	for _, v := range idx {
		if m > 0 && !s.Less(idx[m-1], v) {
			m--
			side = append(side, idx[m], v)
			continue
		}
		idx[m] = v
		m++
	}
	if len(side) == 0 {
		return side
	}
	so.sortIndices(s, side)
	i, j := m-1, len(side)-1
	for k := len(idx) - 1; j >= 0; k-- {
		if i >= 0 && s.Less(side[j], idx[i]) {
			idx[k] = idx[i]
			i--
		} else {
			idx[k] = side[j]
			j--
		}
	}
	return side
}

// radixIdxCutoff mirrors smallStoreCutoff for index-list sorts.
const radixIdxCutoff = 48
