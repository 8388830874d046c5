package pic

import (
	"errors"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/policy"
)

// allTopologies are every Config.Topology spelling Run accepts.
var allTopologies = []string{"", TopologyFullMesh, TopologyNeighborSparse}

// TestGoldenAcrossTopologies2D: the golden run is static, so its timed loop
// never needs the systolic relay, and every topology reproduces the
// recorded 2-D golden TotalTime and the byte-exact final state fingerprint
// of the default full-mesh run. (Runs that do need the relay charge more
// simulated time; see TestRedistributionSparseStencilP8.)
func TestGoldenAcrossTopologies2D(t *testing.T) {
	const recorded = 1.1831223
	var wantFP uint64
	for _, topo := range allTopologies {
		cfg := base()
		cfg.Topology = topo
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("topology %q: %v", topo, err)
		}
		if diff := res.TotalTime - recorded; diff > 1e-7 || diff < -1e-7 {
			t.Errorf("topology %q: TotalTime %.12g, recorded %.12g", topo, res.TotalTime, recorded)
		}
		if topo == "" {
			wantFP = res.Fingerprint
			continue
		}
		if res.Fingerprint != wantFP {
			t.Errorf("topology %q: fingerprint %016x, full mesh %016x", topo, res.Fingerprint, wantFP)
		}
	}
}

// TestGoldenAcrossTopologies3D is the 3-D golden matrix (P=8, where the
// neighbor-sparse descriptor is genuinely sparser than the mesh's skeleton
// at P=4 would be).
func TestGoldenAcrossTopologies3D(t *testing.T) {
	const recorded = 1.5221545
	var wantFP uint64
	for _, topo := range allTopologies {
		cfg := base3()
		cfg.Topology = topo
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("topology %q: %v", topo, err)
		}
		if diff := res.TotalTime - recorded; diff > 1e-7 || diff < -1e-7 {
			t.Errorf("topology %q: TotalTime %.12g, recorded %.12g", topo, res.TotalTime, recorded)
		}
		if topo == "" {
			wantFP = res.Fingerprint
			continue
		}
		if res.Fingerprint != wantFP {
			t.Errorf("topology %q: fingerprint %016x, full mesh %016x", topo, res.Fingerprint, wantFP)
		}
	}
}

// TestRedistributionAcrossTopologies exercises the steady-state sparse
// dataEx protocol in the timed loop: a periodic policy redistributes every
// 3 iterations, and the final physics fingerprint must match the full-mesh
// run under every topology. At P=4 the skeleton links every pair, so the
// relay never fires; P=8 is TestRedistributionSparseStencilP8's job.
func TestRedistributionAcrossTopologies(t *testing.T) {
	run := func(topo string) *Result {
		cfg := base()
		cfg.Topology = topo
		cfg.Policy = policy.NewPeriodic(3)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("topology %q: %v", topo, err)
		}
		if res.NumRedistributions == 0 {
			t.Fatalf("topology %q: periodic policy never redistributed", topo)
		}
		return res
	}
	want := run("")
	for _, topo := range allTopologies[1:] {
		res := run(topo)
		if res.Fingerprint != want.Fingerprint {
			t.Errorf("topology %q: fingerprint %016x, full mesh %016x", topo, res.Fingerprint, want.Fingerprint)
		}
		if res.FinalParticleCount != want.FinalParticleCount {
			t.Errorf("topology %q: %d particles, want %d", topo, res.FinalParticleCount, want.FinalParticleCount)
		}
	}
}

// TestRedistributionSparseStencilP8 is the regression test for the far-
// traffic relay: at P=8 on the 2-D grid the 2×4 processor arrangement is
// genuinely sparse (ranks two rows apart own no link), and the periodic
// repartition decouples the particle partition from the mesh blocks, so
// scatter/gather and redistribution all carry payloads between unlinked
// ranks. Those payloads must ride the systolic relay. Under the equal-count
// strategy the physics must still match the full mesh bit for bit. Under
// the cost-weighted strategy the layout reads the simulated clock, which
// the relay's extra messages move, so only the invariants are asserted:
// Verify's per-iteration charge and particle-count checks, at least one
// redistribution, and the final count.
func TestRedistributionSparseStencilP8(t *testing.T) {
	run := func(topo string, pol policy.Factory) *Result {
		cfg := base()
		cfg.P = 8
		cfg.Topology = topo
		cfg.Policy = pol
		res, err := Run(cfg) // base() sets Verify: a charge or count drift fails here
		if err != nil {
			t.Fatalf("topology %q: %v", topo, err)
		}
		if res.NumRedistributions == 0 {
			t.Fatalf("topology %q: periodic policy never redistributed", topo)
		}
		if res.FinalParticleCount != cfg.NumParticles {
			t.Fatalf("topology %q: %d particles, want %d", topo, res.FinalParticleCount, cfg.NumParticles)
		}
		return res
	}
	// The premise: the sparse descriptor must not degenerate to a mesh here,
	// or the relay path is untested.
	cfg := base()
	cfg.P = 8
	cfg.Topology = TopologyNeighborSparse
	tp, err := TopologyFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tp.IsFullMesh() {
		t.Fatal("P=8 2-D neighbor-sparse descriptor is a full mesh; the far-traffic path is not exercised")
	}
	equal := policy.NewPeriodic(3)
	want := run("", equal)
	if res := run(TopologyNeighborSparse, equal); res.Fingerprint != want.Fingerprint {
		t.Errorf("equal-count: fingerprint %016x, full mesh %016x", res.Fingerprint, want.Fingerprint)
	}
	weighted := policy.WithStrategy(policy.NewPeriodic(3), policy.CostWeighted)
	run(TopologyNeighborSparse, weighted)
}

// TestEulerianAcrossTopologies runs the per-iteration migration mode under
// each topology: migrations move particles one cell at most, so the
// neighbor-only protocol must carry them and the physics must agree.
func TestEulerianAcrossTopologies(t *testing.T) {
	run := func(topo string) *Result {
		cfg := base()
		cfg.Eulerian = true
		cfg.Topology = topo
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("topology %q: %v", topo, err)
		}
		return res
	}
	want := run("")
	for _, topo := range allTopologies[1:] {
		res := run(topo)
		if res.Fingerprint != want.Fingerprint {
			t.Errorf("topology %q: fingerprint %016x, full mesh %016x", topo, res.Fingerprint, want.Fingerprint)
		}
	}
}

// TestChaosAcrossTopologies: on every topology, a 2-D run with each
// receive delayed by seeded jitter under a Tracer ends with the physics of
// the undisturbed run of that topology.
func TestChaosAcrossTopologies(t *testing.T) {
	for i, topo := range allTopologies {
		name := topo
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			cfg := chaosBase()
			cfg.Topology = topo
			checkJitteredPhysics(t, cfg, false, int64(500+100*i))
		})
	}
}

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec string
		kind string // "" when the spec must be rejected
	}{
		{"", TopologyFullMesh},
		{"full-mesh", TopologyFullMesh},
		{"neighbor-sparse", TopologyNeighborSparse},
		{"systolic-ring", ""},  // deleted: neighbor-sparse's links, more messages
		{"hierarchical", ""},   // deleted: the full mesh's messages, in-process only
		{"hierarchical:2", ""}, // deleted with it
		{"torus", ""},
	}
	for _, c := range cases {
		kind, err := parseTopology(c.spec)
		if (c.kind != "") != (err == nil) {
			t.Errorf("parseTopology(%q): err %v, want ok=%v", c.spec, err, c.kind != "")
			continue
		}
		if kind != c.kind {
			t.Errorf("parseTopology(%q) = %q, want %q", c.spec, kind, c.kind)
		}
	}
}

// TestTopologyFor checks the exported descriptor builder: both spellings
// yield descriptors of the right size and name, anything else is rejected.
func TestTopologyFor(t *testing.T) {
	cfg := base()
	for _, topo := range []string{TopologyFullMesh, TopologyNeighborSparse} {
		cfg.Topology = topo
		tp, err := TopologyFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Size() != cfg.P || tp.Name() != topo {
			t.Fatalf("descriptor (%s, %d), want (%s, %d)", tp.Name(), tp.Size(), topo, cfg.P)
		}
	}
	cfg.Topology = "nonsense"
	if _, err := TopologyFor(cfg); err == nil {
		t.Fatal("TopologyFor accepted an unknown topology")
	}
}

// TestValidateRejectsBadTopology makes sure a bad spec is caught at
// configuration time, not mid-assembly.
func TestValidateRejectsBadTopology(t *testing.T) {
	cfg := base()
	cfg.Topology = "torus"
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Run accepted an unknown topology")
	}
	if errors.Is(err, comm.ErrOutOfTopology) {
		t.Fatal("config rejection should not be an out-of-topology send error")
	}
}
