package psort

import (
	"math"
	"math/rand"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/particle"
)

// Adversarial key patterns: the sorting machinery must stay correct when
// keys collide massively, arrive pre-sorted, reversed, or concentrated on
// one rank.

func runAdversarial(t *testing.T, p int, makeKeys func(rank, i, perRank int) float64) {
	t.Helper()
	const perRank = 64
	total := p * perRank
	g := newGather()
	commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
		s := particle.NewStore(perRank, -1, 1)
		for i := 0; i < perRank; i++ {
			s.Append(0, 0, 0, 0, 0, float64(r.Rank()*perRank+i))
			s.Key[s.Len()-1] = makeKeys(r.Rank(), i, perRank)
		}
		s = SampleSort(r, s)
		inc := NewIncremental(8)
		inc.Prime(s)
		// One more redistribution after a deterministic perturbation.
		for i := 0; i < s.Len(); i++ {
			s.Key[i] = math.Max(0, s.Key[i]+float64(i%5-2))
		}
		s, _ = inc.Redistribute(r, s)
		g.put(r.Rank(), s)
	})
	wantIDs := map[float64]bool{}
	for i := 0; i < total; i++ {
		wantIDs[float64(i)] = true
	}
	g.checkGlobal(t, p, total, wantIDs)
}

func TestSortAllEqualKeys(t *testing.T) {
	runAdversarial(t, 4, func(rank, i, perRank int) float64 { return 42 })
}

func TestSortAlreadySorted(t *testing.T) {
	runAdversarial(t, 4, func(rank, i, perRank int) float64 {
		return float64(rank*perRank + i)
	})
}

func TestSortReversed(t *testing.T) {
	runAdversarial(t, 4, func(rank, i, perRank int) float64 {
		return float64(10000 - rank*perRank - i)
	})
}

func TestSortTwoValues(t *testing.T) {
	runAdversarial(t, 8, func(rank, i, perRank int) float64 {
		if (rank+i)%2 == 0 {
			return 1
		}
		return 2
	})
}

func TestSortOneHotRank(t *testing.T) {
	// All large keys start on rank 0.
	runAdversarial(t, 4, func(rank, i, perRank int) float64 {
		if rank == 0 {
			return float64(100000 + i)
		}
		return float64(rank*perRank + i)
	})
}

func TestIncrementalConvergesUnderRepeatedShuffles(t *testing.T) {
	// Redistribute after full random key reshuffles: the worst case for
	// the incremental path (everything off-processor) must still produce
	// a correct global order every time.
	const p = 4
	const perRank = 80
	total := p * perRank
	for round := 0; round < 3; round++ {
		g := newGather()
		commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
			rng := rand.New(rand.NewSource(int64(round*100 + r.Rank())))
			s := makeLocal(rng, perRank, r.Rank()*perRank, 1000)
			s = SampleSort(r, s)
			inc := NewIncremental(8)
			inc.Prime(s)
			for k := 0; k < 3; k++ {
				for i := 0; i < s.Len(); i++ {
					s.Key[i] = math.Floor(rng.Float64() * 1000)
				}
				s, _ = inc.Redistribute(r, s)
			}
			g.put(r.Rank(), s)
		})
		wantIDs := map[float64]bool{}
		for i := 0; i < total; i++ {
			wantIDs[float64(i)] = true
		}
		g.checkGlobal(t, p, total, wantIDs)
	}
}

func TestLoadBalanceExtremeSkew(t *testing.T) {
	// One rank holds everything; counts must equalise while the global
	// order is preserved.
	const p = 8
	const total = 801 // deliberately not divisible by p
	g := newGather()
	commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
		s := particle.NewStore(0, -1, 1)
		if r.Rank() == p-1 { // skew at the end of the chain
			for i := 0; i < total; i++ {
				s.Append(0, 0, 0, 0, 0, float64(i))
				s.Key[s.Len()-1] = float64(i)
			}
		}
		g.put(r.Rank(), balanced(r, s, nil))
	})
	wantIDs := map[float64]bool{}
	for i := 0; i < total; i++ {
		wantIDs[float64(i)] = true
	}
	g.checkGlobal(t, p, total, wantIDs)
}

func BenchmarkLocalSort(b *testing.B) {
	commtest.Launch(1, machine.Zero(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(1))
		inc := NewIncremental(0)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := makeLocal(rng, 4096, 0, 1<<20)
			b.StartTimer()
			inc.LocalSort(r, s)
		}
	})
}
