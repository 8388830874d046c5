package pic

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/geom"
	"picpar/internal/machine"
	"picpar/internal/particle"
	"picpar/internal/partition"
	"picpar/internal/psort"
)

// bootWorld is one boot configuration: the run config with its geometry
// and link-set plan, as runRank builds them.
type bootWorld struct {
	cfg Config
	ge  geom.Geometry
	pl  topoPlan
}

func newBootWorld(t *testing.T, dims, p int, dist, topo string) bootWorld {
	t.Helper()
	cfg := base()
	if dims == 3 {
		cfg = base3()
	}
	cfg.P, cfg.Distribution, cfg.Topology = p, dist, topo
	cfg.NumParticles = 1999 // no P here divides it
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	ge, err := newGeometry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := buildTopoPlan(cfg, ge)
	if err != nil {
		t.Fatal(err)
	}
	return bootWorld{cfg: cfg, ge: ge, pl: pl}
}

// run calls boot on a fresh rank state of every rank and returns each
// rank's store afterwards.
func (w bootWorld) run(boot func(st *rankState)) []*particle.Store {
	var mu sync.Mutex
	stores := make([]*particle.Store, w.cfg.P)
	commtest.Launch(w.cfg.P, machine.CM5(), func(r comm.Transport) {
		st := &rankState{r: r, cfg: w.cfg, ge: w.ge, inc: psort.NewIncremental(psort.DefaultBuckets),
			bootEx: w.pl.bootEx, dataEx: w.pl.dataEx, topo: w.pl.topo}
		boot(st)
		mu.Lock()
		defer mu.Unlock()
		stores[r.Rank()] = st.store
	})
	return stores
}

// generate returns the whole population the run's configuration names.
func (w bootWorld) generate(t *testing.T) *particle.Store {
	t.Helper()
	s, err := w.ge.Generate(geom.GenConfig{
		N:            w.cfg.NumParticles,
		Distribution: w.cfg.Distribution,
		Seed:         w.cfg.Seed,
		Thermal:      w.cfg.Thermal,
		Drift:        w.cfg.Drift,
		Charge:       w.cfg.MacroCharge,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBootLayoutMatchesPartitionOracle runs the initial distribution as
// runRank does — deal or receive a chunk, assign keys, the sample sort
// with its order-maintaining balance — and checks every rank's particle
// ids against partition.BuildIndependent, the sequential equal-count SFC
// split, on the same generated population.
//
// Tie rule: psort orders particles by (Key, ID), and BuildIndependent by
// key with ties in generation order. Generation assigns ID = generation
// index, so the two orders are the same sequence, both cut it into the
// same BLOCK ranges, and every particle must land on the rank the oracle
// names. Each rank's store must also be in strict (Key, ID) order: the
// sample sort merges the sorted runs its sources sent, and under the spike
// distribution runs from different sources share keys, so a merge that
// breaks key ties any other way than by id fails here.
func TestBootLayoutMatchesPartitionOracle(t *testing.T) {
	for _, dims := range []int{2, 3} {
		for _, p := range []int{1, 3, 4, 7} {
			for _, dist := range []string{particle.DistUniform, particle.DistIrregular, particle.DistSpike} {
				for _, topo := range []string{TopologyFullMesh, TopologyNeighborSparse} {
					name := fmt.Sprintf("%dD/P%d/%s/%s", dims, p, dist, topo)
					t.Run(name, func(t *testing.T) { checkBootLayout(t, dims, p, dist, topo) })
				}
			}
		}
	}
}

func checkBootLayout(t *testing.T, dims, p int, dist, topo string) {
	w := newBootWorld(t, dims, p, dist, topo)
	owner := make([]int, w.cfg.NumParticles)
	for i := range owner {
		owner[i] = -1
	}
	stores := w.run((*rankState).initialDistribution)
	checkKeyIDOrder(t, stores)
	for rank, s := range stores {
		for _, id := range s.ID {
			if owner[int(id)] != -1 {
				t.Errorf("particle %v on ranks %d and %d", id, owner[int(id)], rank)
			}
			owner[int(id)] = rank
		}
	}

	want := partition.BuildIndependent(w.ge, w.generate(t))
	for id, got := range owner {
		if got != want.Particles[id] {
			t.Fatalf("particle %d booted on rank %d, partition oracle says %d", id, got, want.Particles[id])
		}
	}
}

// checkKeyIDOrder fails unless the ranks' stores, concatenated in rank
// order, are in strict (Key, ID) order.
func checkKeyIDOrder(t *testing.T, stores []*particle.Store) {
	t.Helper()
	prevKey, prevID, prevRank := math.Inf(-1), math.Inf(-1), -1
	for rank, s := range stores {
		for i := range s.Key {
			k, id := s.Key[i], s.ID[i]
			if k < prevKey || k == prevKey && id <= prevID {
				t.Fatalf("rank %d particle %d (key %v, id %v) does not follow (key %v, id %v) of rank %d in (Key, ID) order",
					rank, i, k, id, prevKey, prevID, prevRank)
			}
			prevKey, prevID, prevRank = k, id, rank
		}
	}
}

// TestBootOrderIgnoresDealingOrder boots a caller's spike population whose
// ids run against the dealing order: the ranks' sources send id blocks in
// descending order, so a merge that broke key ties by source, as
// redistribution's merge breaks them for the kept run, would pass the
// generated populations above and fail here.
func TestBootOrderIgnoresDealingOrder(t *testing.T) {
	for _, dims := range []int{2, 3} {
		for _, p := range []int{3, 4} {
			t.Run(fmt.Sprintf("%dD/P%d", dims, p), func(t *testing.T) {
				w := newBootWorld(t, dims, p, particle.DistSpike, TopologyFullMesh)
				custom := w.generate(t)
				for i := range custom.ID {
					custom.ID[i] = float64(custom.Len() - 1 - i)
				}
				w.cfg.CustomParticles = custom
				stores := w.run((*rankState).initialDistribution)
				checkKeyIDOrder(t, stores)
				n := 0
				for _, s := range stores {
					n += s.Len()
				}
				if n != custom.Len() {
					t.Fatalf("booted %d particles, want %d", n, custom.Len())
				}
			})
		}
	}
}

// TestDealtChunksConcatenateToGenerate pins the chunked generation: rank 0
// generates the population chunk by chunk as it deals it, and the dealt
// chunks, concatenated in rank order, must be the store Generate makes in
// one call — every column bit for bit, ids
// included — for every distribution, on both link sets.
func TestDealtChunksConcatenateToGenerate(t *testing.T) {
	dists := []string{particle.DistUniform, particle.DistIrregular, particle.DistTwoStream,
		particle.DistBeam, particle.DistSpike, particle.DistCollapse}
	for _, dims := range []int{2, 3} {
		for _, p := range []int{1, 3, 4, 7} {
			for _, dist := range dists {
				for _, topo := range []string{TopologyFullMesh, TopologyNeighborSparse} {
					name := fmt.Sprintf("%dD/P%d/%s/%s", dims, p, dist, topo)
					t.Run(name, func(t *testing.T) {
						w := newBootWorld(t, dims, p, dist, topo)
						deal := func(st *rankState) {
							if st.r.Rank() == 0 {
								st.dealChunks()
							} else {
								st.recvChunk()
							}
						}
						chunks := w.run(deal)
						all := chunks[0].NewLike(w.cfg.NumParticles)
						for _, c := range chunks {
							all.AppendRange(c, 0, c.Len())
						}
						if msg := diffStores(all, w.generate(t)); msg != "" {
							t.Fatal(msg)
						}
					})
				}
			}
		}
	}
}

// diffStores describes the first difference between two stores, every
// column bit for bit plus the layout and species constants, or returns "".
func diffStores(got, want *particle.Store) string {
	if got.Len() != want.Len() || got.Dims() != want.Dims() {
		return fmt.Sprintf("%d %d-D particles, want %d %d-D", got.Len(), got.Dims(), want.Len(), want.Dims())
	}
	if got.Charge != want.Charge || got.Mass != want.Mass {
		return fmt.Sprintf("species (%g, %g), want (%g, %g)", got.Charge, got.Mass, want.Charge, want.Mass)
	}
	cols := []struct {
		name string
		a, b []float64
	}{{"x", got.X, want.X}, {"y", got.Y, want.Y}, {"z", got.Z, want.Z}, {"px", got.Px, want.Px},
		{"py", got.Py, want.Py}, {"pz", got.Pz, want.Pz}, {"id", got.ID, want.ID}, {"key", got.Key, want.Key}}
	for _, c := range cols {
		for i := range c.b {
			if math.Float64bits(c.a[i]) != math.Float64bits(c.b[i]) {
				return fmt.Sprintf("particle %d: %s = %v, want %v", i, c.name, c.a[i], c.b[i])
			}
		}
	}
	return ""
}
