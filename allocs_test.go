// Steady-state allocation pins: LocalSort (2-D and 3-D stores) allocates
// nothing once its pooled scratch is warm, an incremental redistribution
// sizes its stores once and then allocates O(P) objects per call, a whole
// simulation's per-iteration allocation count does not grow with the
// worker count, and a 3-D iteration over loopback TCP recycles its message
// buffers.
package picpar_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"picpar"
	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/particle"
	"picpar/internal/pic"
	"picpar/internal/psort"
	"picpar/internal/raceflag"
)

// unsortedStore builds n particles with random integral SFC-like keys and
// shuffled unique ids — the population shape LocalSort sees in production.
func unsortedStore(rng *rand.Rand, n int) *particle.Store {
	s := particle.NewStore(n, -1, 1)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		s.Append(0, 0, 0, 0, 0, float64(perm[i]))
		s.Key[i] = float64(rng.Intn(1 << 20))
	}
	return s
}

// TestLocalSortSteadyStateAllocs pins LocalSort's steady-state allocation
// count at zero: after one warm-up call primes the pooled sorter scratch,
// re-sorting a shuffled population must not allocate.
func TestLocalSortSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	commtest.Launch(1, machine.Zero(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(7))
		ref := unsortedStore(rng, 4096)
		s := ref.Clone()
		psort.LocalSort(r, s, nil) // warm the sorter pool
		allocs := testing.AllocsPerRun(20, func() {
			copy(s.Key, ref.Key)
			copy(s.ID, ref.ID)
			psort.LocalSort(r, s, nil)
		})
		if allocs != 0 {
			t.Errorf("LocalSort steady state: %v allocs/op, want 0", allocs)
		}
	})
}

// unsortedStore3 is unsortedStore with a z axis: the 3-D population shape,
// exercising the wider store in the same sort paths.
func unsortedStore3(rng *rand.Rand, n int) *particle.Store {
	s := particle.NewStore3(n, -1, 1)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		s.Append3(0, 0, 0, 0, 0, 0, float64(perm[i]))
		s.Key[i] = float64(rng.Intn(1 << 20))
	}
	return s
}

// TestLocalSort3DSteadyStateAllocs pins the 3-D steady state at zero
// allocations too: the optional z column must ride the same pooled scratch
// as the 2-D hot path.
func TestLocalSort3DSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	commtest.Launch(1, machine.Zero(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(7))
		ref := unsortedStore3(rng, 4096)
		s := ref.Clone()
		psort.LocalSort(r, s, nil) // warm the sorter pool
		allocs := testing.AllocsPerRun(20, func() {
			copy(s.Key, ref.Key)
			copy(s.ID, ref.ID)
			psort.LocalSort(r, s, nil)
		})
		if allocs != 0 {
			t.Errorf("3-D LocalSort steady state: %v allocs/op, want 0", allocs)
		}
	})
}

// simAllocsPerIter measures the marginal heap allocations of one PIC
// iteration at the given worker count: two runs differing only in iteration
// count, so setup (stores, pools, first-touch bucket growth) cancels out.
func simAllocsPerIter(t *testing.T, workers int) float64 {
	t.Helper()
	run := func(iters int) uint64 {
		cfg := picpar.Config{
			Grid:         picpar.NewGrid(32, 16),
			P:            2,
			NumParticles: 1024,
			Distribution: picpar.DistIrregular,
			Seed:         3,
			Iterations:   iters,
			Policy:       picpar.StaticPolicy(),
			Workers:      workers,
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := picpar.Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	run(4) // warm the shared pools (wire buffers, sorters)
	short, long := run(4), run(28)
	if long < short {
		return 0
	}
	return float64(long-short) / 24
}

// TestSimulationSteadyStateAllocsWorkers pins the shared-memory layer's
// steady-state allocation discipline at the whole-simulation level: a
// 4-worker run must not allocate meaningfully more per iteration than the
// sequential run. The pool's goroutines are parked once at rank startup and
// its range tasks live in the rank state, so the marginal cost of an
// iteration is worker-count-independent.
func TestSimulationSteadyStateAllocsWorkers(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	seq := simAllocsPerIter(t, 1)
	par4 := simAllocsPerIter(t, 4)
	// Generous absolute slack: world-level bookkeeping (timer wheels, GC
	// noise) wobbles by a few allocations per iteration in both modes.
	if par4 > seq+32 {
		t.Errorf("workers=4 allocates %.1f/iter, sequential %.1f/iter — parallel layer leaks per-iteration allocations", par4, seq)
	}
}

// redistributeAllocs runs a P-rank world of n particles per rank through
// warm incremental redistributions and returns, per rank, the bytes
// allocated by the first warm calls together and the allocations per call
// of the steady calls after them. Before each call every particle's key
// drifts a little and one in a hundred jumps anywhere, so each call keeps
// most particles in their bucket, reorders a few and ships some off-rank.
func redistributeAllocs(p, n, warm, steady int) (warmBytes, steadyAllocs float64) {
	const keySpace = 1 << 20
	var m0, m1, m2 runtime.MemStats
	commtest.Launch(p, machine.Zero(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(int64(31 + r.Rank())))
		s := particle.NewStore(n, -1, 1)
		for i := 0; i < n; i++ {
			s.Append(0, 0, 0, 0, 0, float64(r.Rank()*n+i))
			s.Key[i] = float64(rng.Intn(keySpace))
		}
		s = psort.SampleSort(r, s)
		inc := psort.NewIncremental(0)
		inc.Prime(s)
		drift := func(s *particle.Store) {
			for i := range s.Key {
				k := s.Key[i] + math.Round(rng.NormFloat64()*64)
				if rng.Intn(100) == 0 {
					k = float64(rng.Intn(keySpace))
				}
				s.Key[i] = math.Min(math.Max(k, 0), keySpace-1)
			}
		}
		phase := func(m *runtime.MemStats, calls int) {
			comm.Barrier(r)
			if r.Rank() == 0 {
				runtime.ReadMemStats(m)
			}
			comm.Barrier(r)
			for c := 0; c < calls; c++ {
				drift(s)
				s, _ = inc.Redistribute(r, s)
			}
		}
		phase(&m0, warm)
		phase(&m1, steady)
		phase(&m2, 0)
	})
	warmBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(p)
	steadyAllocs = float64(m2.Mallocs-m1.Mallocs) / float64(p*steady)
	return warmBytes, steadyAllocs
}

// TestRedistributeSizedOnceAllocs pins the incremental redistribution's
// store discipline on a P=4 world. Warm-up: the first two calls on n
// particles per rank allocate at most six stores' worth per rank — the
// kept, merged and receive stores plus the two alternating output slots,
// each sized once from the count it receives, with room for the bucket
// lists and one regrowth — where stores grown by append pay several times
// their final size. Steady state: a call allocates O(P) objects per rank
// (message and collective bookkeeping), nothing per particle.
func TestRedistributeSizedOnceAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	const p, n = 4, 1 << 14
	warmBytes, steadyAllocs := redistributeAllocs(p, n, 2, 8)
	if stores := warmBytes / (n * particle.WireBytes); stores > 6 {
		t.Errorf("first two redistributions allocate %.1f stores' worth per rank (%.0f B), want <= 6", stores, warmBytes)
	}
	if steadyAllocs > 12*p+24 {
		t.Errorf("steady redistribution allocates %.1f objects per call per rank, want O(P) <= %d", steadyAllocs, 12*p+24)
	}
}

// netBytesPerIter measures the marginal heap bytes of one 3-D PIC iteration
// run rank by rank (pic.RunRank) over loopback TCP: two runs of n and 2n
// iterations, so rendezvous, socket set-up, the initial deal and
// first-touch growth cancel out.
func netBytesPerIter(t *testing.T, n int) float64 {
	t.Helper()
	run := func(iters int) uint64 {
		cfg := picpar.Config{
			Dims:         3,
			Grid3:        picpar.NewGrid3(16, 16, 16),
			NumParticles: 4096,
			Distribution: picpar.DistUniform,
			Seed:         3,
			Iterations:   iters,
			Policy:       picpar.StaticPolicy(),
			Workers:      1,
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, errs := comm.LaunchLoopback(commtest.NetTemplate(machine.CM5()), 4, nil, func(r comm.Transport) {
			if _, err := pic.RunRank(r, cfg); err != nil {
				panic(err)
			}
		})
		runtime.ReadMemStats(&m1)
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	run(n) // warm the shared pools (wire buffers, sorters)
	short, long := run(n), run(2*n)
	if long < short {
		return 0
	}
	return float64(long-short) / float64(n)
}

// TestNetIterationRecyclesBuffers pins the TCP message path at the
// whole-simulation level: a warm 3-D iteration on 16³ cells, 4 096
// particles and P = 4 allocates tens of KiB once its scatter, gather and
// six-face halo buffers cycle through the wire pool (garbage collections
// emptying the pool mid-run make the spread). A transport that drops its
// encoded send buffers, with halo faces made per send and decode buffers
// nobody returns, allocates about 1.2 MB per iteration here.
func TestNetIterationRecyclesBuffers(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	const bound = 256 << 10
	perIter := netBytesPerIter(t, 10)
	t.Logf("warm 3-D TCP iteration allocates %.0f B", perIter)
	if perIter > bound {
		t.Errorf("warm 3-D TCP iteration allocates %.0f B, want <= %d", perIter, bound)
	}
}
