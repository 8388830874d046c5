package pic

import (
	"sync"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
)

// runNetBase runs the reference configuration over real loopback TCP
// sockets — every rank a NetRank endpoint wrapped by wrap — and returns
// rank 0's Result.
func runNetBase(t *testing.T, cfg Config, wrap func(comm.Transport) comm.Transport) *Result {
	t.Helper()
	cfg.P = 4
	var res *Result
	var mu sync.Mutex
	params := cfg.Machine
	if params == (machine.Params{}) {
		params = machine.CM5() // mirror config.withDefaults
	}
	tmpl := commtest.NetTemplate(params)
	if cfg.Topology != "" {
		// Assemble the socket mesh of the configured topology, so the TCP
		// backend's sparse dialing and digest pinning are on the wire the
		// golden crosses.
		tp, err := TopologyFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tmpl.Topology = tp
	}
	_, errs := comm.LaunchLoopback(tmpl, cfg.P, wrap, func(tr comm.Transport) {
		r, err := RunRank(tr, cfg)
		if err != nil {
			panic(err)
		}
		if r != nil {
			mu.Lock()
			res = r
			mu.Unlock()
		}
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed: %v", rank, err)
		}
	}
	if res == nil {
		t.Fatal("rank 0 produced no result")
	}
	return res
}

// TestNetGoldenByteIdentical: the pinned 2-D reference run reproduces its
// exact simulated total over real TCP sockets — the golden does not know
// which wire it ran on. (The multi-process version of this assertion is
// scripts/netsmoke.sh, which runs the same configuration as 4 OS
// processes.)
func TestNetGoldenByteIdentical(t *testing.T) {
	res := runNetBase(t, base(), nil)
	const recorded = 1.1831223 // the golden_test.go pin
	if diff := res.TotalTime - recorded; diff > 1e-7 || diff < -1e-7 {
		t.Errorf("TCP-backend reference total %.7f, recorded %.7f", res.TotalTime, recorded)
	}
	if res.FinalParticleCount != 2048 {
		t.Errorf("final particles %d, want 2048", res.FinalParticleCount)
	}
	if res.ComputeSum <= 0 || res.Efficiency <= 0 {
		t.Errorf("world aggregates missing: sum=%g eff=%g", res.ComputeSum, res.Efficiency)
	}
}

// TestNetGoldenAcrossTopologies: both topologies reproduce the static 2-D
// golden over real TCP sockets — the sparse assembly (O(P·k) dials, digest
// pinning at the rendezvous) and the topology-selected exchange protocols
// change neither the simulated clock nor one byte of physics. The
// fingerprint is compared against the goroutine backend's full-mesh run,
// closing the backend × topology matrix.
func TestNetGoldenAcrossTopologies(t *testing.T) {
	ref, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	const recorded = 1.1831223
	for _, topo := range []string{TopologyFullMesh, TopologyNeighborSparse} {
		cfg := base()
		cfg.Topology = topo
		res := runNetBase(t, cfg, nil)
		if diff := res.TotalTime - recorded; diff > 1e-7 || diff < -1e-7 {
			t.Errorf("topology %q over TCP: total %.7f, recorded %.7f", topo, res.TotalTime, recorded)
		}
		if res.Fingerprint != ref.Fingerprint {
			t.Errorf("topology %q over TCP: fingerprint %016x, goroutine full mesh %016x",
				topo, res.Fingerprint, ref.Fingerprint)
		}
	}
}

// TestNetChaosGolden: over loopback TCP, a run with every receive delayed
// by seeded jitter under a Tracer ends with the physics of the undisturbed
// run — message timing crossing a real wire moves clocks and nothing else.
func TestNetChaosGolden(t *testing.T) {
	checkJitteredPhysics(t, chaosBase(), true, 1300)
}

// TestNetChaosSparseTopology: the same over a neighbour-sparse TCP
// assembly, where redistribution relays through stencil links only.
func TestNetChaosSparseTopology(t *testing.T) {
	cfg := chaosBase()
	cfg.Topology = TopologyNeighborSparse
	checkJitteredPhysics(t, cfg, true, 1400)
}

// TestRunNet3DMatchesRun runs the 3-D reference configuration through
// RunNet, one goroutine per rank joined over loopback TCP, as each picsim
// -net rank process does: every rank builds its geometry and topology plan
// once and runs on them, and the result must be the goroutine world's run,
// TotalTime and fingerprint alike.
func TestRunNet3DMatchesRun(t *testing.T) {
	cfg := base3()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := commtest.NetTemplate(machine.CM5())
	co, err := comm.StartCoordinator("127.0.0.1:0", cfg.P, tmpl.RendezvousTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	go co.Serve()
	results := make([]*Result, cfg.P)
	errs := make([]error, cfg.P)
	var wg sync.WaitGroup
	for rank := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ncfg := tmpl
			ncfg.Coordinator, ncfg.Rank, ncfg.Size = co.Addr(), rank, cfg.P
			results[rank], errs[rank] = RunNet(ncfg, cfg)
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	res := results[0]
	if res == nil {
		t.Fatal("rank 0 produced no result")
	}
	if res.TotalTime != ref.TotalTime || res.Fingerprint != ref.Fingerprint {
		t.Errorf("RunNet: total %.7f, fingerprint %016x; Run: %.7f, %016x",
			res.TotalTime, res.Fingerprint, ref.TotalTime, ref.Fingerprint)
	}
}
