package radix

import (
	"math/rand"
	"sort"
	"testing"

	"picpar/internal/par"
	"picpar/internal/raceflag"
)

// randomPairs builds n (hi, lo, idx) triples with deliberately narrow key
// ranges (only the low bytes vary, like SFC keys), including duplicates so
// stability is exercised.
func randomPairs(rng *rand.Rand, n int) ([]uint64, []uint64, []int32) {
	hi := make([]uint64, n)
	lo := make([]uint64, n)
	idx := make([]int32, n)
	for i := range hi {
		hi[i] = Bits64(float64(rng.Intn(1 << 18)))
		lo[i] = Bits64(float64(rng.Intn(n)))
		idx[i] = int32(i)
	}
	return hi, lo, idx
}

func clone64(s []uint64) []uint64 { return append([]uint64(nil), s...) }
func clone32(s []int32) []int32   { return append([]int32(nil), s...) }

// TestSortPairsParMatchesSequential: for the nil pool and worker counts 1,
// 2, 3 and 8, on sizes straddling the insertion and parallel cutoffs, the
// driver's output — contents AND permutation — equals the sort.Stable
// reference (pairRef, radix_test.go). The constHi inputs hold one hi word
// throughout, so all eight of its passes must be skipped.
func TestSortPairsParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pools := []*par.Pool{nil, par.New(1), par.New(2), par.New(3), par.New(8)}
	for _, p := range pools {
		defer p.Close()
	}
	sizes := []int{0, 1, 47, insertionCutoff, parCutoff - 1, parCutoff, parCutoff + 1, 3*parCutoff + 17}
	for _, n := range sizes {
		for _, constHi := range []bool{false, true} {
			hi, lo, idx := randomPairs(rng, n)
			if constHi {
				for i := range hi {
					hi[i] = 42
				}
			}
			ref := &pairRef{hi: clone64(hi), lo: clone64(lo), idx: clone32(idx)}
			sort.Stable(ref)
			for _, p := range pools {
				var sc Scratch
				gotHi, gotLo, gotIdx := SortPairsPar(clone64(hi), clone64(lo), clone32(idx), &sc, p)
				if len(gotHi) != n {
					t.Fatalf("W=%d n=%d: sort returned %d elements", p.Workers(), n, len(gotHi))
				}
				for i := 0; i < n; i++ {
					if gotHi[i] != ref.hi[i] || gotLo[i] != ref.lo[i] || gotIdx[i] != ref.idx[i] {
						t.Fatalf("nil=%v W=%d n=%d constHi=%v: element %d = (%d,%d,%d), want (%d,%d,%d)",
							p == nil, p.Workers(), n, constHi, i, gotHi[i], gotLo[i], gotIdx[i],
							ref.hi[i], ref.lo[i], ref.idx[i])
					}
				}
			}
		}
	}
}

// TestSortPairsParSteadyStateAllocs: once the scratch is warm, the driver
// allocates nothing, inline (nil pool) or on a 4-worker pool.
func TestSortPairsParSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	rng := rand.New(rand.NewSource(44))
	p4 := par.New(4)
	defer p4.Close()
	for _, p := range []*par.Pool{nil, p4} {
		var sc Scratch
		n := 2 * parCutoff
		hi, lo, idx := randomPairs(rng, n)
		refHi, refLo, refIdx := clone64(hi), clone64(lo), clone32(idx)
		// The sort ping-pongs with sc's buffers, so each call adopts the
		// returned slices (the documented contract) before reshuffling.
		hi, lo, idx = SortPairsPar(hi, lo, idx, &sc, p) // warm the scratch
		allocs := testing.AllocsPerRun(10, func() {
			copy(hi, refHi)
			copy(lo, refLo)
			copy(idx, refIdx)
			hi, lo, idx = SortPairsPar(hi, lo, idx, &sc, p)
		})
		if allocs != 0 {
			t.Errorf("SortPairsPar steady state at %d workers: %v allocs/op, want 0", p.Workers(), allocs)
		}
	}
}
