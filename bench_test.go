// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per artifact, quick problem sizes — run `cmd/picbench -full`
// for the paper-scale versions), plus microbenchmarks of the hot kernels.
//
// Simulated execution times (the quantity the paper reports) are exposed
// via b.ReportMetric as sim-s/op next to the real wall time.
package picpar_test

import (
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"picpar"
	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/experiments"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/pic"
	"picpar/internal/policy"
	"picpar/internal/psort"
	"picpar/internal/raceflag"
	"picpar/internal/sfc"
)

// BenchmarkTable1Partitioning regenerates Table 1: load imbalance and
// communication character of the Grid / Particle / Independent strategies.
func BenchmarkTable1Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard, true)
	}
}

// BenchmarkFig16StaticVsPeriodic regenerates Figure 16: total execution
// time under static vs periodic redistribution.
func BenchmarkFig16StaticVsPeriodic(b *testing.B) {
	var static, best float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig16(io.Discard, true)
		c := experiments.Fig16Case{Nx: 128, Ny: 64, N: 8192}
		static = res.StaticTotal(c)
		best = res.BestPeriodicTotal(c)
	}
	b.ReportMetric(static, "sim-s-static")
	b.ReportMetric(best, "sim-s-best-periodic")
}

// BenchmarkFig17PerIterationHistory regenerates Figures 17–19: the
// per-iteration execution-time and scatter-traffic histories.
func BenchmarkFig17PerIterationHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig17to19(io.Discard, true)
	}
}

// BenchmarkFig20Dynamic regenerates Figure 20: periodic sweep vs the
// dynamic Stop-At-Rise policy.
func BenchmarkFig20Dynamic(b *testing.B) {
	var dyn, best float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig20(io.Discard, true)
		dyn = res.Dynamic().Total
		best = res.BestPeriodicTotal()
	}
	b.ReportMetric(dyn, "sim-s-dynamic")
	b.ReportMetric(best, "sim-s-best-periodic")
}

// BenchmarkTable2Indexing regenerates Table 2 (Hilbert vs snakelike
// computation time) together with Figures 21–22 (overhead) and Table 3
// (efficiency), which are views over the same runs.
func BenchmarkTable2Indexing(b *testing.B) {
	var hil, snk float64
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(io.Discard, true)
		hil, snk = 0, 0
		for _, c := range res.Cells {
			if c.Indexing == sfc.SchemeHilbert {
				hil += c.Overhead
			} else {
				snk += c.Overhead
			}
		}
	}
	b.ReportMetric(hil, "sim-s-overhead-hilbert")
	b.ReportMetric(snk, "sim-s-overhead-snake")
}

// BenchmarkIncrementalVsFullSort regenerates the redistribution-cost
// ablation (the paper's Figure 11 claim) plus the duplicate-table and mesh
// distribution ablations.
func BenchmarkIncrementalVsFullSort(b *testing.B) {
	var inc, full float64
	for i := 0; i < b.N; i++ {
		res := experiments.Ablation(io.Discard, true)
		inc, full = res.IncrementalRedistTime, res.FullSortRedistTime
	}
	b.ReportMetric(inc, "sim-s-incremental")
	b.ReportMetric(full, "sim-s-fullsort")
}

// --- Microbenchmarks of the hot kernels ---

// BenchmarkSimulationIteration measures real host time per PIC iteration
// at the paper's per-rank granularity (1024 particles/rank on 8 ranks).
func BenchmarkSimulationIteration(b *testing.B) {
	cfg := picpar.Config{
		Grid:         picpar.NewGrid(64, 32),
		P:            8,
		NumParticles: 8192,
		Distribution: picpar.DistIrregular,
		Seed:         1,
		Iterations:   b.N,
		Policy:       picpar.PeriodicPolicy(25),
	}
	b.ResetTimer()
	res, err := picpar.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if b.N > 0 {
		b.ReportMetric(res.TotalTime/float64(b.N), "sim-s/iter")
	}
}

// BenchmarkSimulationIteration3D is the same per-iteration measurement
// with the pipeline selected onto a 3-D geometry (1024 particles/rank on 8
// ranks, 16^3 mesh): the dimension seam's dispatch cost shows up here if
// it ever grows.
func BenchmarkSimulationIteration3D(b *testing.B) {
	cfg := picpar.Config{
		Dims:         3,
		Grid3:        picpar.NewGrid3(16, 16, 16),
		P:            8,
		NumParticles: 8192,
		Distribution: picpar.DistIrregular,
		Seed:         1,
		Iterations:   b.N,
		Policy:       picpar.PeriodicPolicy(25),
	}
	b.ResetTimer()
	res, err := picpar.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if b.N > 0 {
		b.ReportMetric(res.TotalTime/float64(b.N), "sim-s/iter")
	}
}

// BenchmarkSimulationIterationWorkers4 is BenchmarkSimulationIteration with
// the physics kernels spread over 4 shared-memory workers per rank. The
// simulated time is identical by construction (the cost model is
// worker-count-invariant); the wall time and allocs/op show what the pool
// costs on this host. Steady state must stay allocation-light: the pool
// goroutines are pre-spawned and the deposition buckets are reused.
func BenchmarkSimulationIterationWorkers4(b *testing.B) {
	cfg := picpar.Config{
		Grid:         picpar.NewGrid(64, 32),
		P:            8,
		NumParticles: 8192,
		Distribution: picpar.DistIrregular,
		Seed:         1,
		Iterations:   b.N,
		Policy:       picpar.PeriodicPolicy(25),
		Workers:      4,
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := picpar.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if b.N > 0 {
		b.ReportMetric(res.TotalTime/float64(b.N), "sim-s/iter")
	}
}

// BenchmarkSimulationIteration3DWorkers4 is the 3-D counterpart: trilinear
// footprints over the same 4-worker pool.
func BenchmarkSimulationIteration3DWorkers4(b *testing.B) {
	cfg := picpar.Config{
		Dims:         3,
		Grid3:        picpar.NewGrid3(16, 16, 16),
		P:            8,
		NumParticles: 8192,
		Distribution: picpar.DistIrregular,
		Seed:         1,
		Iterations:   b.N,
		Policy:       picpar.PeriodicPolicy(25),
		Workers:      4,
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := picpar.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if b.N > 0 {
		b.ReportMetric(res.TotalTime/float64(b.N), "sim-s/iter")
	}
}

// BenchmarkSimulationIterationReliable is BenchmarkSimulationIteration with
// the reliable-delivery layer installed on a fault-free transport: the two
// must stay within noise of each other (the chaos harness's "fault-free
// overhead" acceptance bar). The sequence-number envelopes add a few bytes
// per wire message but no simulated time and no extra round trips.
func BenchmarkSimulationIterationReliable(b *testing.B) {
	rel := picpar.NewReliable(picpar.ReliableConfig{})
	cfg := picpar.Config{
		Grid:         picpar.NewGrid(64, 32),
		P:            8,
		NumParticles: 8192,
		Distribution: picpar.DistIrregular,
		Seed:         1,
		Iterations:   b.N,
		Policy:       picpar.PeriodicPolicy(25),
		Transport:    rel.Wrap,
	}
	b.ResetTimer()
	res, err := picpar.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if b.N > 0 {
		b.ReportMetric(res.TotalTime/float64(b.N), "sim-s/iter")
	}
	if s := rel.Stats(); s.Retransmissions+s.DupsSuppressed+s.ReordersHealed+s.Failures != 0 {
		b.Fatalf("fault-free run exercised recovery: %+v", s)
	}
}

// BenchmarkSimulationIterationStrategy measures per-iteration cost under
// each layout strategy on the skewed spike workload, one sub-benchmark per
// strategy — the strategy name lands in the bench-JSON entry names, so the
// regression trajectory tracks the weighted and adaptive paths (ledger
// observation, weight allgather, chooser scoring) separately from the
// equal-count baseline.
func BenchmarkSimulationIterationStrategy(b *testing.B) {
	pols := []struct {
		name string
		pol  func() picpar.PolicyFactory
	}{
		{"equal-count", func() picpar.PolicyFactory {
			return picpar.WithStrategy(picpar.PeriodicPolicy(10), picpar.StrategyEqualCount)
		}},
		{"cost-weighted", func() picpar.PolicyFactory {
			return picpar.WithStrategy(picpar.PeriodicPolicy(10), picpar.StrategyCostWeighted)
		}},
		{"adaptive", func() picpar.PolicyFactory { return picpar.AdaptivePolicyEvery(10) }},
	}
	for _, p := range pols {
		b.Run(p.name, func(b *testing.B) {
			cfg := picpar.Config{
				Grid:         picpar.NewGrid(128, 64),
				P:            8,
				NumParticles: 4096,
				Distribution: picpar.DistSpike,
				Seed:         11,
				Iterations:   b.N,
				Policy:       p.pol(),
			}
			b.ResetTimer()
			res, err := picpar.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if b.N > 0 {
				b.ReportMetric(res.TotalTime/float64(b.N), "sim-s/iter")
			}
		})
	}
}

// BenchmarkHilbertIndex measures the per-particle indexing cost.
func BenchmarkHilbertIndex(b *testing.B) {
	ix := sfc.MustNew(sfc.SchemeHilbert, 512, 256)
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += ix.Index(i&511, (i>>3)&255)
	}
	_ = s
}

// BenchmarkSnakeIndex is the baseline ordering's indexing cost.
func BenchmarkSnakeIndex(b *testing.B) {
	ix := sfc.MustNew(sfc.SchemeSnake, 512, 256)
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += ix.Index(i&511, (i>>3)&255)
	}
	_ = s
}

// localSortN is the population of the LocalSort microbenchmarks: large
// enough that the radix passes dominate, matching the perf-harness target.
const localSortN = 32768

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

// BenchmarkLocalSort measures the radix sort + permutation apply behind
// every LocalSort call, at 32k particles. Steady state allocates nothing.
func BenchmarkLocalSort(b *testing.B) {
	commtest.Launch(1, machine.Zero(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(1))
		ref := unsortedStore(rng, localSortN)
		s := ref.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(s.Key, ref.Key)
			copy(s.ID, ref.ID)
			b.StartTimer()
			psort.LocalSort(r, s, nil)
		}
	})
}

// BenchmarkLocalSortStdlib is the pre-radix comparison sort on the same
// population — the baseline the harness measures speedup against.
func BenchmarkLocalSortStdlib(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ref := unsortedStore(rng, localSortN)
	s := ref.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(s.Key, ref.Key)
		copy(s.ID, ref.ID)
		b.StartTimer()
		sort.Sort(s)
	}
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
// the tiled deposition buckets are truncated, never freed, so the marginal
// cost of an iteration is worker-count-independent.
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

// BenchmarkSampleSort measures a full parallel sample sort of 32768
// particles over 8 ranks.
func BenchmarkSampleSort(b *testing.B) {
	benchSort(b, false)
}

// BenchmarkIncrementalRedistribute measures the bucket-based incremental
// redistribution of the same population after a small drift.
func BenchmarkIncrementalRedistribute(b *testing.B) {
	benchSort(b, true)
}

func benchSort(b *testing.B, incremental bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := pic.Config{
			Grid:         mesh.NewGrid(128, 64),
			P:            8,
			NumParticles: 32768,
			Distribution: particle.DistIrregular,
			Seed:         int64(i),
			Iterations:   1,
			Policy:       policy.NewPeriodic(1),
		}
		if !incremental {
			cfg.Iterations = 0
		}
		if _, err := pic.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFieldSolve measures the distributed Maxwell solve throughput.
func BenchmarkFieldSolve(b *testing.B) {
	cfg := picpar.Config{
		Grid:         picpar.NewGrid(256, 128),
		P:            8,
		NumParticles: 0,
		Iterations:   b.N,
		Policy:       picpar.StaticPolicy(),
	}
	b.ResetTimer()
	if _, err := picpar.Run(cfg); err != nil {
		b.Fatal(err)
	}
}
