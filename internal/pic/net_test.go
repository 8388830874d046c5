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

// TestNetChaosSparseTopology: the chaos stack (Tracer∘Reliable∘Faulty)
// composes unchanged over a sparse TCP assembly — drops, duplicates and
// reorderings on stencil links are recovered below the protocol layer.
func TestNetChaosSparseTopology(t *testing.T) {
	plan := comm.FaultPlan{Seed: 0xBEEF02, DropProb: 0.1, MaxDropAttempts: 2,
		DupProb: 0.1, ReorderProb: 0.1}
	faulty := comm.NewFaulty(plan)
	rel := comm.NewReliable(comm.ReliableConfig{})
	tracer := comm.NewTracer()
	cfg := base()
	cfg.Topology = TopologyNeighborSparse
	res := runNetBase(t, cfg, func(tr comm.Transport) comm.Transport {
		return tracer.Wrap(rel.Wrap(faulty.Wrap(tr)))
	})
	if c := faulty.Counts(); c.Drops+c.Dups+c.Reorders == 0 {
		t.Fatal("fault plan injected nothing — the soak exercised no recovery")
	}
	if res.FinalParticleCount != 2048 {
		t.Errorf("final particles %d under chaos over sparse TCP, want 2048", res.FinalParticleCount)
	}
}

// TestNetChaosGolden: the full chaos stack over the TCP backend still
// reproduces the golden exactly — injected drops, duplicates, reorderings
// and delays are recovered before the simulation can observe them, and the
// recovery surcharge is confined to simulated comm time the reference
// configuration does not measure. This is the soak crossing a real wire.
func TestNetChaosGolden(t *testing.T) {
	plan := comm.FaultPlan{Seed: 0xBEEF01, DropProb: 0.1, MaxDropAttempts: 2,
		DupProb: 0.1, ReorderProb: 0.1}
	faulty := comm.NewFaulty(plan)
	rel := comm.NewReliable(comm.ReliableConfig{})
	tracer := comm.NewTracer()
	res := runNetBase(t, base(), func(tr comm.Transport) comm.Transport {
		return tracer.Wrap(rel.Wrap(faulty.Wrap(tr)))
	})
	c := faulty.Counts()
	if c.Drops+c.Dups+c.Reorders == 0 {
		t.Fatal("fault plan injected nothing — the soak exercised no recovery")
	}
	if res.FinalParticleCount != 2048 {
		t.Errorf("final particles %d under chaos over TCP, want 2048", res.FinalParticleCount)
	}
	if tracer.Total().MsgsSent == 0 {
		t.Error("tracer observed no traffic")
	}
}
