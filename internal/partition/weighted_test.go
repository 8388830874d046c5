package partition

import (
	"math/rand"
	"sort"
	"testing"

	"picpar/internal/geom"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/sfc"
)

// cloneKeys guards against SortKeysIndex's in-place sort: every call under
// test gets its own copy, as the Build* entry points arrange in production.
func cloneKeys(keys []uint64) []uint64 {
	return append([]uint64(nil), keys...)
}

func testKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(257)) // heavy duplication, like real cells
	}
	return keys
}

// equalCount is the reference equal-count split: the particles in stable
// (key, original index) order, dealt into P BLOCK chunks.
func equalCount(keys []uint64, p int) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	owners := make([]int, len(keys))
	for pos, i := range order {
		owners[i] = mesh.BlockOwner(len(keys), p, pos)
	}
	return owners
}

// TestWeightedOwnersUniformEqualsEqualCount: with every cell at the same
// weight — any same weight — the weighted split must equal the equal-count
// split exactly, particle for particle. Equal-count is the weight-1 special case.
func TestWeightedOwnersUniformEqualsEqualCount(t *testing.T) {
	for _, n := range []int{0, 1, 17, 1000} {
		for _, p := range []int{1, 2, 3, 8, 13} {
			keys := testKeys(n, int64(n*31+p))
			want := equalCount(keys, p)
			for _, w := range []float64{1, 0.125, 3.7, 1e-9, 1e12} {
				w := w
				got := weightedOwners(cloneKeys(keys), p, func(uint64) float64 { return w })
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d p=%d w=%g: particle %d owner %d, want %d",
							n, p, w, i, got[i], want[i])
					}
				}
			}
			// nil and all-zero weight functions also degrade to equal-count.
			for _, wf := range []WeightFunc{nil, func(uint64) float64 { return 0 }} {
				got := weightedOwners(cloneKeys(keys), p, wf)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d p=%d degenerate wf: particle %d owner %d, want %d",
							n, p, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestWeightedOwnersDeterministicAndScaleInvariant: the split is a pure
// function of its inputs, and rescaling all weights by a power of two (or
// any common factor that survives quantization) leaves it unchanged.
func TestWeightedOwnersDeterministicAndScaleInvariant(t *testing.T) {
	keys := testKeys(2000, 42)
	wf := func(k uint64) float64 { return float64(k%7) + 0.5 }
	base := weightedOwners(cloneKeys(keys), 8, wf)
	again := weightedOwners(cloneKeys(keys), 8, wf)
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("weightedOwners not deterministic at particle %d", i)
		}
	}
	for _, c := range []float64{0.25, 2, 1024, 1.0 / 65536} {
		c := c
		scaled := weightedOwners(cloneKeys(keys), 8, func(k uint64) float64 { return c * wf(k) })
		for i := range base {
			if scaled[i] != base[i] {
				t.Fatalf("scale %g: particle %d owner %d, want %d", c, i, scaled[i], base[i])
			}
		}
	}
}

// TestWeightedOwnersBalancesWeight: on a two-population workload (a few
// heavy cells, many light ones) the weighted split's per-rank weight
// imbalance must beat equal-count's, and the split must respect the sorted
// order (owners non-decreasing along the sorted key order).
func TestWeightedOwnersBalancesWeight(t *testing.T) {
	const n, p = 4000, 8
	rng := rand.New(rand.NewSource(9))
	keys := make([]uint64, n)
	for i := range keys {
		if i%4 == 0 {
			keys[i] = uint64(rng.Intn(16)) // hot cells
		} else {
			keys[i] = 16 + uint64(rng.Intn(240))
		}
	}
	wf := func(k uint64) float64 {
		if k < 16 {
			return 25
		}
		return 1
	}
	loadOf := func(owners []int) float64 {
		loads := make([]float64, p)
		for i, r := range owners {
			loads[r] += wf(keys[i])
		}
		return imbalanceF(loads)
	}
	eq := loadOf(equalCount(keys, p))
	wt := loadOf(weightedOwners(cloneKeys(keys), p, wf))
	if wt >= eq {
		t.Errorf("weighted split imbalance %g not better than equal-count %g", wt, eq)
	}
	if wt > 1.1 {
		t.Errorf("weighted split imbalance %g, want near 1", wt)
	}

	owners := weightedOwners(cloneKeys(keys), p, wf)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	prev := 0
	for _, i := range idx {
		if owners[i] < prev {
			t.Fatalf("owners not monotone along sorted keys: %d after %d", owners[i], prev)
		}
		if owners[i] < 0 || owners[i] >= p {
			t.Fatalf("owner %d out of range", owners[i])
		}
		prev = owners[i]
	}
}

// TestMeasureIndependentWeightedBruteForce: WeightedImbalance must equal
// the brute-force max/mean of per-rank summed particle weights, and the
// unit-weight case must coincide with ParticleImbalance.
func TestMeasureIndependentWeightedBruteForce(t *testing.T) {
	g := mesh.NewGrid(32, 32)
	d, err := mesh.NewDistOrdered(g, 8, sfc.SchemeHilbert)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sfc.New(sfc.SchemeHilbert, g.Nx, g.Ny)
	if err != nil {
		t.Fatal(err)
	}
	s, err := particle.Generate(particle.Config{
		N: 4096, Lx: g.Lx, Ly: g.Ly, Distribution: particle.DistIrregular, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ge := geom.New2(g, d, ix)
	wf := func(k uint64) float64 { return 1 + float64(k%13) }

	l := BuildIndependentWeighted(ge, s, wf)
	q := Measure(ge, l, s, wf)

	loads := make([]float64, ge.Ranks())
	total := 0.0
	for i := 0; i < s.Len(); i++ {
		w := wf(uint64(s.Key[i]))
		loads[l.Particles[i]] += w
		total += w
	}
	max := 0.0
	for _, ld := range loads {
		if ld > max {
			max = ld
		}
	}
	want := max / (total / float64(ge.Ranks()))
	if q.WeightedImbalance != want {
		t.Errorf("WeightedImbalance %g, want brute force %g", q.WeightedImbalance, want)
	}
	if q.WeightedImbalance > 1.2 {
		t.Errorf("weighted build should balance weight, imbalance %g", q.WeightedImbalance)
	}

	// Unit weights: WeightedImbalance == ParticleImbalance, and the layout
	// matches BuildIndependent.
	lu := BuildIndependentWeighted(ge, s, func(uint64) float64 { return 1 })
	qu := Measure(ge, lu, s, func(uint64) float64 { return 1 })
	if qu.WeightedImbalance != qu.ParticleImbalance {
		t.Errorf("unit-weight WeightedImbalance %g != ParticleImbalance %g",
			qu.WeightedImbalance, qu.ParticleImbalance)
	}
	le := BuildIndependent(ge, s)
	for i := range le.Particles {
		if lu.Particles[i] != le.Particles[i] {
			t.Fatalf("unit-weight build differs from BuildIndependent at particle %d", i)
		}
	}
}
