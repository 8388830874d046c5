// Allocation pins: LocalSort (2-D and 3-D stores) allocates nothing once
// its rank-owned sets and sorter are warm, an incremental redistribution
// sizes its stores once and then allocates a few objects per call, a run's
// boot stays within a budget of population-sizes, a whole simulation's
// per-iteration allocation count does not grow with the worker count, a
// 3-D iteration over loopback TCP recycles its message buffers, a warm
// iteration allocates a bounded number of objects on both backends, and no
// slice-typed body reaches Send.
package picpar_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
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
// count at zero: after one warm-up call sizes the Incremental's sorter and
// spare set, re-sorting a shuffled population must not allocate.
func TestLocalSortSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	commtest.Launch(1, machine.Zero(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(7))
		ref := unsortedStore(rng, 4096)
		s := ref.Clone()
		inc := psort.NewIncremental(0)
		inc.LocalSort(r, s) // warm the sorter and the spare set
		allocs := testing.AllocsPerRun(20, func() {
			copy(s.Key, ref.Key)
			copy(s.ID, ref.ID)
			inc.LocalSort(r, s)
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
// allocations too: the optional z column must ride the same spare set as
// the 2-D hot path.
func TestLocalSort3DSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	commtest.Launch(1, machine.Zero(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(7))
		ref := unsortedStore3(rng, 4096)
		s := ref.Clone()
		inc := psort.NewIncremental(0)
		inc.LocalSort(r, s) // warm the sorter and the spare set
		allocs := testing.AllocsPerRun(20, func() {
			copy(s.Key, ref.Key)
			copy(s.ID, ref.ID)
			inc.LocalSort(r, s)
		})
		if allocs != 0 {
			t.Errorf("3-D LocalSort steady state: %v allocs/op, want 0", allocs)
		}
	})
}

// perIter returns the marginal heap objects and bytes of one iteration:
// after a warm-up run of short iterations (wire buffers, sorters) it runs
// short and then long iterations, so set-up — world, stores, sockets,
// first-touch growth — cancels out.
func perIter(short, long int, run func(iters int)) (objects, bytes float64) {
	measure := func(iters int) (float64, float64) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run(iters)
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	run(short)
	o1, b1 := measure(short)
	o2, b2 := measure(long)
	n := float64(long - short)
	return max((o2-o1)/n, 0), max((b2-b1)/n, 0)
}

// runSim runs cfg on the goroutine world and fails the test on error.
func runSim(t *testing.T, cfg picpar.Config) func(iters int) {
	return func(iters int) {
		cfg.Iterations = iters
		if _, err := picpar.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// runNet3D runs a 3-D P=4 simulation of 16³ cells and 4 096 uniform
// particles rank by rank (pic.RunRank) over loopback TCP, watchdog armed.
func runNet3D(t *testing.T) func(iters int) {
	return func(iters int) {
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
		_, errs := comm.LaunchLoopback(commtest.NetTemplate(machine.CM5()), 4, nil, func(r comm.Transport) {
			if _, err := pic.RunRank(r, cfg); err != nil {
				panic(err)
			}
		})
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
		}
	}
}

// simAllocsPerIter measures the marginal heap allocations of one PIC
// iteration at the given worker count.
func simAllocsPerIter(t *testing.T, workers int) float64 {
	t.Helper()
	objects, _ := perIter(4, 28, runSim(t, picpar.Config{
		Grid:         picpar.NewGrid(32, 16),
		P:            2,
		NumParticles: 1024,
		Distribution: picpar.DistIrregular,
		Seed:         3,
		Policy:       picpar.StaticPolicy(),
		Workers:      workers,
	}))
	return objects
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

// storeBytes is the size of one 2-D particle across a store's seven
// columns: the unit of the store and population budgets below.
const storeBytes = particle.WireFloats * 8

// TestRedistributeSizedOnceAllocs pins the incremental redistribution's
// store discipline on a P=4 world. Warm-up: the first two calls on n
// particles per rank allocate at most 1.6 stores' worth per rank — the one
// full set the Incremental adds to the primed store it adopted, sized once
// with headroom (1.125), the classification scratch (0.21) and a set sized
// to the received run (1.50 measured). A balance that writes into the
// received-run set grows it to a second full set and measures 2.6; fresh
// kept, merged and output stores per call measure 4.8. Steady state: a
// call allocates a few objects per rank and nothing per particle — 2.9–3.2
// measured with message bodies boxed in pooled headers and the
// collectives' results in rank-owned scratch, 58 when every body boxed its
// slice header afresh and every collective made its result afresh.
func TestRedistributeSizedOnceAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	const p, n, budget = 4, 1 << 14, 1.6
	warmBytes, steadyAllocs := redistributeAllocs(p, n, 2, 8)
	stores := warmBytes / (n * storeBytes)
	t.Logf("first two redistributions allocate %.2f stores per rank, steady %.1f objects per call", stores, steadyAllocs)
	if stores > budget {
		t.Errorf("first two redistributions allocate %.2f stores' worth per rank (%.0f B), want <= %.1f", stores, warmBytes, budget)
	}
	if steadyAllocs > 8 {
		t.Errorf("steady redistribution allocates %.1f objects per call per rank, want <= 8", steadyAllocs)
	}
}

// sliceBodyProbe is a transport decorator that records every body Send
// is handed whose type is a slice: the bodies that box a slice header per
// message.
type sliceBodyProbe struct {
	comm.Transport
	mu   *sync.Mutex
	seen map[string]int // "type tag" -> sends
}

func (p *sliceBodyProbe) Unwrap() comm.Transport { return p.Transport }

func (p *sliceBodyProbe) Send(dst int, tag comm.Tag, body any, nbytes int) {
	if body != nil && reflect.TypeOf(body).Kind() == reflect.Slice {
		p.mu.Lock()
		p.seen[fmt.Sprintf("%T tag %d", body, tag)]++
		p.mu.Unlock()
	}
	p.Transport.Send(dst, tag, body, nbytes)
}

// TestNoSliceBodyReachesSend runs whole simulations under the probe on both
// backends — a redistribution every iteration on the full mesh, a
// cost-weighted one over neighbor-sparse links (the sparse counts and
// systolic relay), and the 3-D TCP run — and requires that no slice-typed
// body reaches Send: every slice crosses the transport boxed.
func TestNoSliceBodyReachesSend(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	wrap := func(tr comm.Transport) comm.Transport { return &sliceBodyProbe{tr, &mu, seen} }
	cfg := picpar.Config{
		Grid:         picpar.NewGrid(64, 32),
		P:            4,
		NumParticles: 4096,
		Distribution: picpar.DistIrregular,
		Seed:         3,
		Iterations:   6,
		Policy:       picpar.PeriodicPolicy(1),
		Workers:      1,
		Watchdog:     commtest.Watchdog(),
		Transport:    wrap,
	}
	sparse := cfg
	sparse.Topology = pic.TopologyNeighborSparse
	sparse.Distribution = picpar.DistSpike
	sparse.Policy = picpar.WithStrategy(picpar.PeriodicPolicy(1), picpar.StrategyCostWeighted)
	for _, c := range []picpar.Config{cfg, sparse} {
		if _, err := picpar.Run(c); err != nil {
			t.Fatal(err)
		}
	}
	net3 := picpar.Config{Dims: 3, Grid3: picpar.NewGrid3(16, 16, 16), NumParticles: 4096,
		Distribution: picpar.DistUniform, Seed: 3, Iterations: 4, Policy: picpar.PeriodicPolicy(2), Workers: 1}
	_, errs := comm.LaunchLoopback(commtest.NetTemplate(machine.CM5()), 4, wrap, func(r comm.Transport) {
		if _, err := pic.RunRank(r, net3); err != nil {
			panic(err)
		}
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for body, n := range seen {
		t.Errorf("%d sends of a %s body", n, body)
	}
}

// TestBootAllocBudget pins what a run allocates before its first time
// step: a P=4 run of 2^16 irregular particles with no iterations — world,
// fields and ghost table, then the dealt chunks, the sample sort and its
// balance — allocates at most 6.4 population-sizes (N·56 B). Rank 0
// generates the population chunk by chunk into its sets as it deals it, and
// a run that never observes costs builds no cost ledger: 6.07 measured. A
// rank 0 that generates the whole population first, keeping its arrays as
// a set, with the ledger built up front, measures 7.07; a boot that also
// builds the sorted run, the balanced share and rank 0's chunk in fresh
// stores, with the sorters pooled, measures 9.1–9.5. The least of three
// runs counts, so a collection that empties the wire pool mid-run cannot
// fail it.
func TestBootAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	const n, budget = 1 << 16, 6.4
	cfg := picpar.Config{
		Grid:         picpar.NewGrid(128, 64),
		P:            4,
		NumParticles: n,
		Distribution: picpar.DistIrregular,
		Seed:         3,
		Iterations:   0,
		Policy:       picpar.StaticPolicy(),
		Workers:      1,
	}
	least := math.Inf(1)
	for run := 0; run < 3; run++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := picpar.Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		least = math.Min(least, float64(m1.TotalAlloc-m0.TotalAlloc)/(n*storeBytes))
	}
	t.Logf("boot allocates %.2f population-sizes", least)
	if least > budget {
		t.Errorf("boot allocates %.2f population-sizes, want <= %.1f", least, budget)
	}
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
	_, bytes := perIter(10, 20, runNet3D(t))
	t.Logf("warm 3-D TCP iteration allocates %.0f B", bytes)
	if bytes > bound {
		t.Errorf("warm 3-D TCP iteration allocates %.0f B, want <= %d", bytes, bound)
	}
}

// TestWarmIterationAllocs pins the objects one warm iteration allocates,
// with the deadlock watchdog armed, on a P=4 goroutine world (64×32 cells,
// 8 192 irregular particles) under static and under periodic:1 — a
// redistribution every iteration — and on the 3-D loopback-TCP run above.
// Slice bodies cross the transport boxed in the wire pool's spare headers,
// the collectives return rank-owned scratch and the watchdog rearms one
// timer per rank, so what is left is per-iteration bookkeeping: the Expose
// record, GC-emptied pool classes (11–21, 22–36 and 32–51 measured over
// seventeen single pairs). Boxing every slice body, fresh collective
// results and a timer per blocking receive measured 283–297, 533–551 and
// 343–359 objects; the bounds, 33, 60 and 120, are at most a third of those.
func TestWarmIterationAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	world := picpar.Config{
		Grid:         picpar.NewGrid(64, 32),
		P:            4,
		NumParticles: 8192,
		Distribution: picpar.DistIrregular,
		Seed:         3,
		Policy:       picpar.StaticPolicy(),
		Workers:      1,
		Watchdog:     commtest.Watchdog(),
	}
	periodic := world
	periodic.Policy = picpar.PeriodicPolicy(1)
	for _, c := range []struct {
		name  string
		run   func(iters int)
		bound float64
	}{
		{"static", runSim(t, world), 100.0 / 3},
		{"periodic:1", runSim(t, periodic), 180.0 / 3},
		{"tcp3d", runNet3D(t), 359.0 / 3},
	} {
		objects, _ := perIter(10, 20, c.run)
		t.Logf("%s: %.1f objects per warm iteration", c.name, objects)
		if objects > c.bound {
			t.Errorf("%s: %.1f objects per warm iteration, want <= %.1f", c.name, objects, c.bound)
		}
	}
}
