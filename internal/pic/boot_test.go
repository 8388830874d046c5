package pic

import (
	"fmt"
	"sync"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/particle"
	"picpar/internal/partition"
	"picpar/internal/psort"
)

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
// names.
func TestBootLayoutMatchesPartitionOracle(t *testing.T) {
	for _, dims := range []int{2, 3} {
		for _, p := range []int{1, 3, 4, 7} {
			for _, dist := range []string{particle.DistUniform, particle.DistIrregular} {
				for _, topo := range []string{TopologyFullMesh, TopologyNeighborSparse} {
					name := fmt.Sprintf("%dD/P%d/%s/%s", dims, p, dist, topo)
					t.Run(name, func(t *testing.T) { checkBootLayout(t, dims, p, dist, topo) })
				}
			}
		}
	}
}

func checkBootLayout(t *testing.T, dims, p int, dist, topo string) {
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

	var mu sync.Mutex
	owner := make([]int, cfg.NumParticles)
	for i := range owner {
		owner[i] = -1
	}
	commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
		st := &rankState{r: r, cfg: cfg, ge: ge, inc: psort.NewIncremental(psort.DefaultBuckets),
			bootEx: pl.bootEx, dataEx: pl.dataEx, topo: pl.topo}
		st.initialDistribution()
		mu.Lock()
		defer mu.Unlock()
		for _, id := range st.store.ID {
			if owner[int(id)] != -1 {
				t.Errorf("particle %v on ranks %d and %d", id, owner[int(id)], r.Rank())
			}
			owner[int(id)] = r.Rank()
		}
	})

	want := partition.BuildIndependent(ge, population(cfg, ge))
	for id, got := range owner {
		if got != want.Particles[id] {
			t.Fatalf("particle %d booted on rank %d, partition oracle says %d", id, got, want.Particles[id])
		}
	}
}
