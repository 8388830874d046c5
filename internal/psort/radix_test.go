package psort

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/particle"
	"picpar/internal/raceflag"
	"picpar/internal/wire"
)

// trickyKey draws keys from the regions where a float-bits radix order
// could diverge from comparison order: signed zeros, denormals on both
// sides, and heavily duplicated small integers (the common SFC-key shape,
// which also exercises the ID tiebreak).
func trickyKey(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 5e-324 * float64(rng.Intn(4)) // positive denormals (and 0)
	case 3:
		return -5e-324 * float64(rng.Intn(4)) // negative denormals (and -0)
	case 4:
		return -float64(rng.Intn(20))
	default:
		return float64(rng.Intn(20))
	}
}

// TestRadixSortStoreMatchesSortSort is the ordering property behind
// LocalSort's radix swap: ids are unique, so sort.Sort's (Key, ID) order is
// a unique sequence and the radix path must reproduce it bit-for-bit —
// including the placement of −0 keys, which compare equal to +0 and must
// therefore fall back to the ID tiebreak identically.
func TestRadixSortStoreMatchesSortSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 100, 1000, 4096} {
		s := particle.NewStore(n, -1, 1)
		ids := rng.Perm(n) // unique, shuffled
		for i := 0; i < n; i++ {
			s.Append(rng.Float64(), rng.Float64(), rng.NormFloat64(),
				rng.NormFloat64(), rng.NormFloat64(), float64(ids[i]))
			s.Key[i] = trickyKey(rng)
		}
		ref := s.Clone()
		sort.Sort(ref)
		NewIncremental(0).sortStore(s)
		for i := 0; i < n; i++ {
			if !sameBits(s.Key[i], ref.Key[i]) || s.ID[i] != ref.ID[i] ||
				s.X[i] != ref.X[i] || s.Y[i] != ref.Y[i] ||
				s.Px[i] != ref.Px[i] || s.Py[i] != ref.Py[i] || s.Pz[i] != ref.Pz[i] {
				t.Fatalf("n=%d pos %d: radix (key=%v id=%v) != sort.Sort (key=%v id=%v)",
					n, i, s.Key[i], s.ID[i], ref.Key[i], ref.ID[i])
			}
		}
	}
}

// sameBits compares float64s including the −0/+0 distinction.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSortIndicesByKeyIDMatchesReference checks the per-bucket index sort
// against a stable comparison reference on both sides of the radix cutoff,
// with duplicated keys so the ID tiebreak decides most positions.
func TestSortIndicesByKeyIDMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := particle.NewStore(8192, -1, 1)
	ids := rng.Perm(8192)
	for i := 0; i < 8192; i++ {
		s.Append(0, 0, 0, 0, 0, float64(ids[i]))
		s.Key[i] = float64(rng.Intn(8)) // long equal-key runs
	}
	for _, m := range []int{0, 1, 2, radixIdxCutoff - 1, radixIdxCutoff, 500, 8000} {
		idx := rng.Perm(8192)[:m]
		want := append([]int(nil), idx...)
		sort.Slice(want, func(a, b int) bool { return s.Less(want[a], want[b]) })
		new(sorter).sortIndices(s, idx)
		for k := range idx {
			if idx[k] != want[k] {
				t.Fatalf("m=%d pos %d: got idx %d want %d", m, k, idx[k], want[k])
			}
		}
	}
}

// TestSortNearlySortedMatchesStable checks the bucket sort of the
// incremental redistribution against a sort.SliceStable (Key, ID)
// reference on the orders it meets: already sorted, reversed, one far
// outlier at either end, k random displacements, equal keys decided by id
// alone, and the empty and single-particle lists. Side lists cross the
// radix cutoff. The side scratch is reused across cases.
func TestSortNearlySortedMatchesStable(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(17))
	tripled := particle.NewStore(n, -1, 1) // equal-key triples, ids ascending
	flat := particle.NewStore(n, -1, 1)    // one key, shuffled distinct ids
	for i, id := range rng.Perm(n) {
		tripled.Append(0, 0, 0, 0, 0, float64(i))
		tripled.Key[i] = float64(i / 3)
		flat.Append(0, 0, 0, 0, 0, float64(id))
		flat.Key[i] = 7
	}
	span := func(lo, hi int) []int {
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	displaced := func(k int) []int {
		idx := span(0, n)
		for ; k > 0; k-- {
			from, to := rng.Intn(n), rng.Intn(n)
			v := idx[from]
			idx = append(idx[:from], idx[from+1:]...)
			idx = append(idx[:to], append([]int{v}, idx[to:]...)...)
		}
		return idx
	}
	reversed := span(0, n)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	byID := span(0, n)
	sort.Slice(byID, func(a, b int) bool { return flat.ID[byID[a]] < flat.ID[byID[b]] })
	cases := []struct {
		name string
		s    *particle.Store
		idx  []int
	}{
		{"empty", tripled, nil},
		{"single", tripled, []int{5}},
		{"sorted", tripled, span(0, n)},
		{"reversed", tripled, reversed},
		{"outlier-front", tripled, append([]int{n - 1}, span(0, n-1)...)},
		{"outlier-back", tripled, append(span(1, n), 0)},
		{"1-descent", tripled, displaced(1)},
		{"5-descents", tripled, displaced(5)},
		{"60-descents", tripled, displaced(60)},
		{"equal-keys-shuffled-ids", flat, span(0, n)},
		{"equal-keys-swapped-pair", flat, append(append([]int{}, byID[1], byID[0]), byID[2:]...)},
	}
	var so sorter
	var side []int
	for _, c := range cases {
		want := append([]int(nil), c.idx...)
		sort.SliceStable(want, func(a, b int) bool { return c.s.Less(want[a], want[b]) })
		got := append([]int(nil), c.idx...)
		side = so.sortNearlySorted(c.s, got, side)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("%s: pos %d holds particle %d, want %d", c.name, k, got[k], want[k])
			}
		}
	}
}

// TestEqualKeyIDTiebreakWitness pins the tiebreak explicitly: equal keys
// must come out in ascending ID order, whatever the input order was.
func TestEqualKeyIDTiebreakWitness(t *testing.T) {
	n := 1024
	s := particle.NewStore(n, -1, 1)
	for i := 0; i < n; i++ {
		s.Append(0, 0, 0, 0, 0, float64(n-1-i)) // ids descending
		s.Key[i] = float64(i % 2)               // two key classes, interleaved
	}
	NewIncremental(0).sortStore(s)
	for i := 1; i < n; i++ {
		if s.Key[i] < s.Key[i-1] {
			t.Fatalf("pos %d: keys out of order", i)
		}
		if s.Key[i] == s.Key[i-1] && s.ID[i] <= s.ID[i-1] {
			t.Fatalf("pos %d: equal keys with non-ascending ids %v, %v",
				i, s.ID[i-1], s.ID[i])
		}
	}
}

// TestRedistributeClassifyPackZeroAlloc is the steady-state allocation
// criterion of the redistribution hot path: after one warm-up, the
// classify + pack inner loop (everything Redistribute does per particle
// before the network exchange) performs zero allocations per run.
func TestRedistributeClassifyPackZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	commtest.Launch(4, machine.Zero(), func(r comm.Transport) {
		// classify and pack are communication-free, so only rank 0 runs.
		if r.Rank() != 0 {
			return
		}
		rng := rand.New(rand.NewSource(17))
		s := makeLocal(rng, 4096, 0, 1000)
		inc := NewIncremental(0)
		inc.LocalSort(r, s)
		inc.Prime(s)
		// Drift a slice of the population off-processor so pack has real
		// marshalling to do.
		for i := 0; i < s.Len(); i += 5 {
			s.Key[i] = 1500 + float64(i%97)
		}
		globalUpper := []float64{inc.upper, 2000, 3000, 4000}

		run := func() {
			inc.classify(r, s, globalUpper)
			send, _ := inc.pack(r, s)
			for _, buf := range send {
				if buf != nil {
					wire.Put(buf) // normally the receiving rank's job
				}
			}
		}
		run() // warm the scratch lists and the wire pool
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("classify+pack steady state: %v allocs/op, want 0", allocs)
		}
	})
}
