package pic

import "testing"

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

// physicsFingerprint reduces a run to the outputs that must not depend on
// message timing or on the worker count: particle conservation, the
// redistribution schedule, and the energy histories. Timing and traffic
// fields are excluded by design.
type physicsFingerprint struct {
	FinalCount int
	NumRedist  int
	Schedule   []bool
	FieldE     []float64
	KineticE   []float64
}

func fingerprint(res *Result) physicsFingerprint {
	fp := physicsFingerprint{
		FinalCount: res.FinalParticleCount,
		NumRedist:  res.NumRedistributions,
	}
	for _, rec := range res.Records {
		fp.Schedule = append(fp.Schedule, rec.Redistributed)
		fp.FieldE = append(fp.FieldE, rec.FieldEnergy)
		fp.KineticE = append(fp.KineticE, rec.KineticEnergy)
	}
	return fp
}

func equalFingerprints(a, b physicsFingerprint) bool {
	if a.FinalCount != b.FinalCount || a.NumRedist != b.NumRedist ||
		len(a.Schedule) != len(b.Schedule) {
		return false
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] || a.FieldE[i] != b.FieldE[i] ||
			a.KineticE[i] != b.KineticE[i] {
			return false
		}
	}
	return true
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
// perturbed message timing — at workers=3, in 2-D and 3-D, on the full mesh
// and the neighbour-sparse link set, a run with every receive jittered ends
// with the undisturbed physics. The two determinism layers are independent:
// the lossless transport makes timing invisible to the protocol, and
// order-preserving range splits hide the intra-rank concurrency.
func TestWorkersChaosByteIdentical(t *testing.T) {
	seed := int64(800)
	for _, geo := range []struct {
		name string
		base func() Config
	}{{"2-D", chaosBase}, {"3-D", chaosBase3}} {
		for _, topo := range []string{TopologyFullMesh, TopologyNeighborSparse} {
			seed += 100
			cfg := geo.base()
			cfg.Topology, cfg.Workers = topo, 3
			t.Run(geo.name+"/"+topo, func(t *testing.T) {
				checkJitteredPhysics(t, cfg, false, seed)
			})
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
