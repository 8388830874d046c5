package pic

import (
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/mesh3"
	"picpar/internal/particle"
	"picpar/internal/policy"
)

// base3 is the 3-D counterpart of base(): the same pipeline selected onto
// a 3-D geometry by Config.Dims.
func base3() Config {
	return Config{
		Dims:         3,
		Grid3:        mesh3.NewGrid(16, 16, 16),
		P:            8,
		NumParticles: 2048,
		Distribution: particle.DistIrregular,
		Seed:         7,
		Iterations:   10,
		Verify:       true,
		Watchdog:     commtest.Watchdog(),
	}
}

func TestRun3DBasic(t *testing.T) {
	res, err := Run(base3())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("records %d, want 10", len(res.Records))
	}
	if res.FinalParticleCount != 2048 {
		t.Fatalf("particles not conserved: %d, want 2048", res.FinalParticleCount)
	}
	if res.TotalTime <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

// TestGolden3DDeterminism pins the exact simulated total and fingerprint of
// the 3-D reference run, exactly as TestGoldenDeterminism does for 2-D: the
// dimension-generic pipeline is fully deterministic, so any drift means
// the cost model, the protocol, or the physics changed.
func TestGolden3DDeterminism(t *testing.T) {
	res, err := Run(base3())
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(base3())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime != again.TotalTime {
		t.Fatalf("3-D run not reproducible: %.12g vs %.12g", res.TotalTime, again.TotalTime)
	}
	got := res.TotalTime
	// Reference recorded when the 3-D pipeline first ran end-to-end.
	const recorded = 1.5221545
	if diff := got - recorded; diff > 1e-7 || diff < -1e-7 {
		t.Errorf("3-D reference run total changed: got %.12g, recorded %.12g", got, recorded)
	}
	const fp = 0x327ee7497adb6f01
	if res.Fingerprint != fp {
		t.Errorf("3-D reference run fingerprint changed: got %016x, recorded %016x", res.Fingerprint, uint64(fp))
	}
}

// TestRun3DDynamicRedistributes: the Stop-At-Rise policy observes the 3-D
// run's measured iteration times and triggers incremental redistributions
// through the same redistribution phase as 2-D — with conservation intact.
func TestRun3DDynamicRedistributes(t *testing.T) {
	cfg := base3()
	cfg.Iterations = 30
	cfg.Policy = policy.NewDynamic()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRedistributions == 0 {
		t.Fatal("SAR policy never fired over 30 drifting 3-D iterations")
	}
	if res.FinalParticleCount != cfg.NumParticles {
		t.Fatalf("particles lost across 3-D redistribution: %d, want %d",
			res.FinalParticleCount, cfg.NumParticles)
	}
	redistIters := 0
	for _, rec := range res.Records {
		if rec.Redistributed {
			redistIters++
			if rec.RedistTime <= 0 {
				t.Errorf("iter %d redistributed in zero time", rec.Iter)
			}
		}
	}
	if redistIters != res.NumRedistributions {
		t.Errorf("record marks %d redistributions, result says %d", redistIters, res.NumRedistributions)
	}
}

// TestChaos3DByteIdenticalUnderReliable: the 3-D simulation, with every
// receive delayed by seeded jitter under a Tracer, ends with the
// undisturbed physics on the full mesh and on the neighbour-sparse link
// set — the geometry seam adds no dependence on message timing.
func TestChaos3DByteIdenticalUnderReliable(t *testing.T) {
	for i, topo := range []string{TopologyFullMesh, TopologyNeighborSparse} {
		t.Run(topo, func(t *testing.T) {
			cfg := chaosBase3()
			cfg.Topology = topo
			checkJitteredPhysics(t, cfg, false, int64(300+100*i))
		})
	}
}

// TestGolden3DP4 pins the 3-D reference run at four ranks, where the cell
// curve's quarters are 16×16×32 columns: the tiles are chosen and numbered
// from those quarters (mesh3.NewDistOrdered), so each rank's particles
// deposit on its own tile.
func TestGolden3DP4(t *testing.T) {
	cfg := base3()
	cfg.P = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const recorded = 2.839984
	if diff := res.TotalTime - recorded; diff > 1e-7 || diff < -1e-7 {
		t.Errorf("3-D P=4 reference run total changed: got %.12g, recorded %.12g", res.TotalTime, recorded)
	}
}

// TestScatterTraffic3DAlignedAtEveryP: on a uniform 32³ plasma, every
// rank's particle P-th covers its own tile at two and four ranks as at
// eight, so the scatter sends no more than half again the eight-rank
// bytes. A tiling that cuts across the curve's P-ths sends about ten times
// as much.
func TestScatterTraffic3DAlignedAtEveryP(t *testing.T) {
	scatter := func(p int) int64 {
		cfg := base3()
		cfg.Grid3 = mesh3.NewGrid(32, 32, 32)
		cfg.P = p
		cfg.NumParticles = 16384
		cfg.Distribution = particle.DistUniform
		cfg.Seed, cfg.Verify = 1, false
		cfg.Iterations = 2
		tracer := comm.NewTracer()
		cfg.Transport = tracer.Wrap
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var most int64
		for r := 0; r < p; r++ {
			most = max(most, tracer.Rank(r).Phases[machine.PhaseScatter].BytesSent)
		}
		t.Logf("P=%d: scatter sends at most %d B per rank, %d B in all", p, most, tracer.PhaseTotals()[machine.PhaseScatter].BytesSent)
		return most
	}
	ref := scatter(8)
	for _, p := range []int{2, 4} {
		if got := scatter(p); 2*got > 3*ref {
			t.Errorf("P=%d scatter sends %d B from one rank, more than 1.5× the P=8 run's %d B", p, got, ref)
		}
	}
}
