package psort

import (
	"math"
	"math/rand"
	"slices"
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

// perParticle is a decorator that charges every ComputeRepeat as the
// Compute calls it stands for, one by one, and tallies their units.
type perParticle struct {
	comm.Transport
	units *int
}

func (p perParticle) Unwrap() comm.Transport { return p.Transport }

func (p perParticle) ComputeRepeat(n, times int) {
	for ; times > 0; times-- {
		p.Compute(n)
		*p.units += max(n, 0)
	}
}

// chargedRun is what one rank's redistribution leaves: its clock, ledger,
// store and classification.
type chargedRun struct {
	now   float64
	stats machine.Stats
	out   *particle.Store
	st    Stats
	units int
}

// redistributeCharged sorts 64 particles per rank of a P=4 world, primes
// an Incremental, moves every key by move(rank, i, key, lo, hi) — lo and hi
// the rank's key range — empties every store but rank 0's when empty is
// set, and runs one redistribution, through perParticle when wrap is set.
func redistributeCharged(wrap, empty bool, move func(rank, i int, key, lo, hi float64) float64) []chargedRun {
	const p, n = 4, 64
	runs := make([]chargedRun, p)
	commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
		run := &runs[r.Rank()]
		t := r
		if wrap {
			t = perParticle{r, &run.units}
		}
		s := SampleSort(t, makeLocal(rand.New(rand.NewSource(int64(5+r.Rank()))), n, r.Rank()*n, 1000))
		inc := NewIncremental(8)
		inc.Prime(s)
		if k := s.Len(); k > 0 {
			lo, hi := s.Key[0], s.Key[k-1]
			for i := range s.Key {
				s.Key[i] = move(r.Rank(), i, s.Key[i], lo, hi)
			}
		}
		if empty && r.Rank() != 0 {
			s.Truncate(0)
		}
		out, st := inc.Redistribute(t, s)
		run.now, run.stats, run.out, run.st = t.Clock().Now(), *t.Stats(), out.Clone(), st
	})
	return runs
}

// TestRedistributeChargesPerParticle: classification charges its δ in runs
// of equal cost, yet a redistribution ends with the clock, ledger and store
// it ends with when every run is charged particle by particle — on stores
// whose particles all stay in their bucket, alternate between the three
// classes, all leave the rank, have keys outside every bound, or are empty
// on all ranks but one. The units charged in runs are exactly the
// classification's: two per same-bucket particle, six per other-bucket,
// eight per off-processor.
func TestRedistributeChargesPerParticle(t *testing.T) {
	same := func(_, _ int, k, _, _ float64) float64 { return k }
	reflect := func(_, _ int, k, lo, hi float64) float64 { return lo + hi - k }
	next := func(_, _ int, k, _, _ float64) float64 { return math.Mod(k+250, 1000) }
	for _, c := range []struct {
		name  string
		empty bool
		move  func(rank, i int, key, lo, hi float64) float64
	}{
		{"same bucket", false, same},
		{"alternating classes", false, func(rank, i int, k, lo, hi float64) float64 {
			return [...]func(int, int, float64, float64, float64) float64{same, reflect, next}[i%3](rank, i, k, lo, hi)
		}},
		{"off-processor", false, next},
		{"outside the bounds", false, func(_, i int, k, _, _ float64) float64 {
			if i%2 == 0 {
				return -1 - k
			}
			return 1000 + k
		}},
		{"empty", true, same},
	} {
		ref := redistributeCharged(false, c.empty, c.move)
		got := redistributeCharged(true, c.empty, c.move)
		t.Logf("%s: rank 0 %+v, rank 3 %+v", c.name, got[0].st, got[3].st)
		for rank := range ref {
			g, w := got[rank], ref[rank]
			if g.now != w.now || g.stats != w.stats {
				t.Errorf("%s rank %d: charged particle by particle, clock %v ledger %+v; in runs, %v %+v",
					c.name, rank, g.now, g.stats, w.now, w.stats)
			}
			if !slices.Equal(g.out.Key, w.out.Key) || !slices.Equal(g.out.ID, w.out.ID) || g.st != w.st {
				t.Errorf("%s rank %d: stores or classifications differ", c.name, rank)
			}
			want := g.st.SameBucket*classifyWorkSameBucket + g.st.OtherBucket*classifyWorkLocal + g.st.OffProc*classifyWorkRemote
			if g.units != want {
				t.Errorf("%s rank %d: runs charge %d units, classification %+v is %d", c.name, rank, g.units, g.st, want)
			}
		}
	}
}
