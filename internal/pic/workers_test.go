package pic

import (
	"testing"

	"picpar/internal/comm"
)

// workerCounts is the determinism matrix: every count must reproduce the
// sequential run byte for byte (non-divisor counts exercise uneven range
// splits; 8 leaves some workers a short or empty share).
var workerCounts = []int{2, 3, 8}

// runFingerprinted runs cfg with per-iteration diagnostics so the
// fingerprint carries the full energy histories.
func runFingerprinted(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.Diagnostics = true
	cfg.DiagEvery = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkWorkersByteIdentical runs ref sequentially and at every worker
// count in workerCounts and fails unless each run is byte-identical to the
// sequential one — simulated TotalTime (plain and with diagnostics) and
// every energy record. Returns the plain sequential TotalTime for the
// caller's golden pin.
func checkWorkersByteIdentical(t *testing.T, name string, ref Config) float64 {
	t.Helper()
	// The pin runs without diagnostics (energy exposure shifts the
	// simulated clock); every worker count must hit it exactly.
	plain, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	seq := runFingerprinted(t, ref)
	want := fingerprint(seq)
	for _, w := range workerCounts {
		cfg := ref
		cfg.Workers = w
		if res, err := Run(cfg); err != nil {
			t.Fatal(err)
		} else if res.TotalTime != plain.TotalTime {
			t.Errorf("%s workers=%d: TotalTime %.17g, sequential %.17g", name, w, res.TotalTime, plain.TotalTime)
		}
		res := runFingerprinted(t, cfg)
		if res.TotalTime != seq.TotalTime {
			t.Errorf("%s workers=%d: diagnostic TotalTime %.17g, sequential %.17g", name, w, res.TotalTime, seq.TotalTime)
		}
		if !equalFingerprints(fingerprint(res), want) {
			t.Errorf("%s workers=%d: physics diverged from the sequential run", name, w)
		}
	}
	return plain.TotalTime
}

// TestWorkersGoldenByteIdentical2D: the pinned 2-D reference run, and the
// same run on a single rank (no transport, so the pool's kernels are the
// whole iteration), are byte-identical for every worker count. The pooled
// gather/push and move split per-particle work, the parallel radix sort and
// Maxwell sweeps replay the sequential floating-point accumulation order
// exactly, and the modelled δ charges never depend on Workers.
func TestWorkersGoldenByteIdentical2D(t *testing.T) {
	const recorded = 1.1831223
	if got := checkWorkersByteIdentical(t, "P=4", base()); got-recorded > 1e-7 || got-recorded < -1e-7 {
		t.Errorf("sequential reference total %.12g, recorded %.7f", got, recorded)
	}
	single := base()
	single.P = 1
	checkWorkersByteIdentical(t, "P=1", single)
}

// TestWorkersGoldenByteIdentical3D is the 3-D pin of the same contract:
// the trilinear footprint (8 vertices), the slab-parallel Maxwell sweeps
// and the 3-D wire layout reproduce the sequential run exactly.
func TestWorkersGoldenByteIdentical3D(t *testing.T) {
	const recorded = 1.5221545
	if got := checkWorkersByteIdentical(t, "P=8", base3()); got-recorded > 1e-7 || got-recorded < -1e-7 {
		t.Errorf("sequential 3-D reference total %.12g, recorded %.7f", got, recorded)
	}
	single := base3()
	single.P = 1
	checkWorkersByteIdentical(t, "P=1", single)
}

// TestWorkersChaosByteIdentical: shared-memory parallelism composes with
// the chaos stack — a Tracer∘Reliable∘Faulty run at workers=3 reproduces
// the fault-free sequential physics exactly. The two determinism layers are
// independent: recovery hides the network faults, order-preserving range
// splits hide the intra-rank concurrency.
func TestWorkersChaosByteIdentical(t *testing.T) {
	clean := runFingerprinted(t, chaosBase())
	want := fingerprint(clean)

	for pi, plan := range e2ePlans {
		faulty := comm.NewFaulty(plan)
		rel := comm.NewReliable(comm.ReliableConfig{})
		tracer := comm.NewTracer()
		cfg := chaosBase()
		cfg.Workers = 3
		cfg.Transport = func(tr comm.Transport) comm.Transport {
			return tracer.Wrap(rel.Wrap(faulty.Wrap(tr)))
		}
		res := runFingerprinted(t, cfg)
		if !equalFingerprints(fingerprint(res), want) {
			t.Errorf("plan %d: workers=3 physics diverged under recovered faults", pi)
		}
		c := faulty.Counts()
		if c.Drops+c.Dups+c.Reorders+c.Delays == 0 {
			t.Errorf("plan %d injected no faults — soak exercised nothing", pi)
		}
	}
}

// TestNetWorkersGolden: the worker pool is per-rank state, so it must be
// transport-agnostic — the pinned reference total reproduces over real TCP
// sockets at workers=3 exactly as it does in-process.
func TestNetWorkersGolden(t *testing.T) {
	cfg := base()
	cfg.Workers = 3
	res := runNetBase(t, cfg, nil)
	const recorded = 1.1831223
	if diff := res.TotalTime - recorded; diff > 1e-7 || diff < -1e-7 {
		t.Errorf("TCP workers=3 total %.7f, recorded %.7f", res.TotalTime, recorded)
	}
	if res.FinalParticleCount != 2048 {
		t.Errorf("final particles %d, want 2048", res.FinalParticleCount)
	}
}
