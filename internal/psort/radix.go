// Radix replacement for the comparison sorts on the particle hot path.
// Ordering is exactly the (Key, ID) order of particle.Store's Less — ids
// are unique, so the sorted order is the same unique sequence sort.Sort
// produced — and only the real (wall-clock) cost changes; every simulated
// δ charge is computed from the same formulas as before.
package psort

import (
	"sort"
	"sync"

	"picpar/internal/par"
	"picpar/internal/particle"
	"picpar/internal/radix"
)

// sorter bundles the reusable buffers of one radix store sort: the
// (key-bits, id-bits, index) triples, the radix ping-pong scratch, and the
// permutation-apply destination arrays.
type sorter struct {
	hi, lo []uint64
	idx    []int32
	rs     radix.Scratch
	ps     particle.Scratch
}

// sorterPool recycles sorters across ranks; all ranks of a world live in
// one process, so a handful of sorters serve any number of worlds with
// zero steady-state allocation.
var sorterPool = sync.Pool{New: func() any { return new(sorter) }}

func (so *sorter) grow(n int) {
	if cap(so.hi) < n {
		so.hi = make([]uint64, n)
		so.lo = make([]uint64, n)
		so.idx = make([]int32, n)
	}
	so.hi = so.hi[:n]
	so.lo = so.lo[:n]
	so.idx = so.idx[:n]
}

// smallStoreCutoff is the store size below which sort.Sort's lower setup
// cost wins over building the bit arrays.
const smallStoreCutoff = 32

// radixSortStore sorts s by (Key, ID) — the exact order of sort.Sort(s) —
// with the radix passes optionally spread over pool's workers. The
// resulting permutation is identical for every pool size (including nil).
func radixSortStore(s *particle.Store, pool *par.Pool) {
	n := s.Len()
	if n < smallStoreCutoff {
		sort.Sort(s)
		return
	}
	so := sorterPool.Get().(*sorter)
	so.grow(n)
	for i := 0; i < n; i++ {
		so.hi[i] = radix.Bits64(s.Key[i])
		so.lo[i] = radix.Bits64(s.ID[i])
		so.idx[i] = int32(i)
	}
	so.hi, so.lo, so.idx = radix.SortPairsPar(so.hi, so.lo, so.idx, &so.rs, pool)
	s.ApplyPermutation(so.idx, &so.ps)
	sorterPool.Put(so)
}

// sortIndicesByKeyID sorts idx so that the referenced particles are in
// (Key, ID) order — the per-bucket sort of the incremental redistribution.
// Small lists use an insertion sort on Less; larger ones go through the
// pooled radix sorter.
func sortIndicesByKeyID(s *particle.Store, idx []int) {
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
	so := sorterPool.Get().(*sorter)
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
	sorterPool.Put(so)
}

// sortNearlySorted sorts idx into the (Key, ID) order of sortIndicesByKeyID
// but sorts only the particles whose order changed: every descent peels
// both of its elements onto side, leaving an ascending run in idx; side is
// sorted and merged back in from the tail. (Key, ID) is a total order, so
// the result is the one sortIndicesByKeyID gives. side is scratch, returned
// for reuse.
func sortNearlySorted(s *particle.Store, idx, side []int) []int {
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
	sortIndicesByKeyID(s, side)
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
