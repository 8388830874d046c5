package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"picpar/internal/comm"
	"picpar/internal/commopt"
	"picpar/internal/machine"
	"picpar/internal/particle"
	"picpar/internal/pic"
	"picpar/internal/policy"
	"picpar/internal/psort"
)

// AblationResult holds the design-choice ablations called out in DESIGN.md.
type AblationResult struct {
	// IncrementalRedistTime and FullSortRedistTime compare the bucket
	// incremental sort against a full sample sort for one redistribution
	// of a drifted population (the paper's Figure 11 claim).
	IncrementalRedistTime float64
	FullSortRedistTime    float64
	// DirectTotal and HashTotal compare total simulation time under the
	// two duplicate-removal structures.
	DirectTotal float64
	HashTotal   float64
	// Dist2DScatterBytes and Dist1DScatterBytes compare peak scatter
	// traffic under 2-D vs 1-D mesh BLOCK distribution.
	Dist2DScatterBytes int64
	Dist1DScatterBytes int64
}

// Ablation measures the three design-choice ablations.
func Ablation(w io.Writer, quick bool) *AblationResult {
	iters, n := 100, 32768
	if quick {
		iters, n = 60, 8192
	}
	const p = 32
	res := &AblationResult{}

	// --- Incremental vs full re-sort for one redistribution ---
	res.IncrementalRedistTime = measureRedist(p, n, true)
	res.FullSortRedistTime = measureRedist(p, n, false)

	// --- Hash vs direct duplicate-removal table ---
	mk := func(table string) *pic.Result {
		return run(pic.Config{
			Grid:         grid(128, 64),
			P:            p,
			NumParticles: n,
			Distribution: particle.DistIrregular,
			Seed:         30,
			Iterations:   iters,
			Policy:       policy.NewPeriodic(20),
			Table:        table,
			Thermal:      0.4,
		})
	}
	res.DirectTotal = mk(commopt.TableDirect).TotalTime
	res.HashTotal = mk(commopt.TableHash).TotalTime

	// --- 2-D vs 1-D mesh BLOCK distribution ---
	mkDist := func(oneD bool) *pic.Result {
		return run(pic.Config{
			Grid:         grid(128, 64),
			P:            p,
			NumParticles: n,
			Distribution: particle.DistUniform,
			Seed:         31,
			Iterations:   iters / 2,
			Policy:       policy.NewPeriodic(20),
			MeshDist1D:   oneD,
			Thermal:      0.4,
		})
	}
	res.Dist2DScatterBytes = mkDist(false).MaxScatterBytes()
	res.Dist1DScatterBytes = mkDist(true).MaxScatterBytes()

	fmt.Fprintln(w, "Ablations (measured):")
	fmt.Fprintf(w, "  redistribution of a drifted population (%d particles, %d ranks):\n", n, p)
	fmt.Fprintf(w, "    bucket incremental sort: %10.4f s\n", res.IncrementalRedistTime)
	fmt.Fprintf(w, "    full sample sort:        %10.4f s\n", res.FullSortRedistTime)
	fmt.Fprintf(w, "  duplicate-removal table (total time, %d iters):\n", iters)
	fmt.Fprintf(w, "    direct address table:    %10.2f s\n", res.DirectTotal)
	fmt.Fprintf(w, "    hash table:              %10.2f s\n", res.HashTotal)
	fmt.Fprintf(w, "  mesh BLOCK distribution (peak scatter bytes/iter):\n")
	fmt.Fprintf(w, "    2-D blocks:              %10d B\n", res.Dist2DScatterBytes)
	fmt.Fprintf(w, "    1-D rows:                %10d B\n", res.Dist1DScatterBytes)
	return res
}

// measureRedist builds a sorted population, drifts the keys slightly, and
// times one redistribution via the incremental sort or a full sample sort.
func measureRedist(p, n int, incremental bool) float64 {
	perRank := n / p
	var mu sync.Mutex
	maxTime := 0.0
	comm.Launch(p, machine.CM5(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(int64(40 + r.Rank())))
		s := particle.NewStore(perRank, -1, 1)
		for i := 0; i < perRank; i++ {
			s.Append(0, 0, 0, 0, 0, float64(r.Rank()*perRank+i))
			s.Key[s.Len()-1] = math.Floor(rng.Float64() * 8192)
		}
		s = psort.SampleSort(r, s)
		inc := psort.NewIncremental(0)
		inc.Prime(s)
		for i := 0; i < s.Len(); i++ {
			s.Key[i] = math.Max(0, s.Key[i]+math.Floor(float64(rng.Float64()*10)-5))
		}
		comm.Barrier(r)
		t0 := r.Clock().Now()
		if incremental {
			s, _ = inc.Redistribute(r, s)
		} else {
			s = psort.SampleSort(r, s)
		}
		comm.Barrier(r)
		elapsed := r.Clock().Now() - t0
		mu.Lock()
		if elapsed > maxTime {
			maxTime = elapsed
		}
		mu.Unlock()
	})
	return maxTime
}
