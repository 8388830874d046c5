package pic

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"picpar/internal/commopt"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/mesh3"
	"picpar/internal/particle"
	"picpar/internal/policy"
	"picpar/internal/raceflag"
	"picpar/internal/sfc"
)

// base returns a small, fast configuration with invariant checking on and
// the deadlock watchdog armed (PICPAR_WATCHDOG-tunable).
func base() Config {
	return Config{
		Grid:         mesh.NewGrid(32, 16),
		P:            4,
		NumParticles: 2048,
		Distribution: particle.DistIrregular,
		Seed:         7,
		Iterations:   10,
		Verify:       true,
		Watchdog:     commtest.Watchdog(),
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("records %d, want 10", len(res.Records))
	}
	if res.TotalTime <= 0 || res.InitTime <= 0 {
		t.Errorf("times: total=%g init=%g", res.TotalTime, res.InitTime)
	}
	if res.FinalParticleCount != 2048 {
		t.Errorf("final particles %d, want 2048", res.FinalParticleCount)
	}
	if res.ComputeMax <= 0 || res.ComputeSum < res.ComputeMax {
		t.Errorf("compute: max=%g sum=%g", res.ComputeMax, res.ComputeSum)
	}
	if res.Overhead < 0 {
		t.Errorf("negative overhead %g", res.Overhead)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1.0001 {
		t.Errorf("efficiency %g outside (0,1]", res.Efficiency)
	}
	for i, rec := range res.Records {
		if rec.Iter != i {
			t.Errorf("record %d has iter %d", i, rec.Iter)
		}
		if rec.Time <= 0 || rec.Compute <= 0 {
			t.Errorf("iter %d: time=%g compute=%g", i, rec.Time, rec.Compute)
		}
		if rec.Compute > rec.Time {
			t.Errorf("iter %d: compute %g exceeds execution %g", i, rec.Compute, rec.Time)
		}
	}
}

func TestRunSingleRank(t *testing.T) {
	cfg := base()
	cfg.P = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One rank: no ghost traffic at all.
	for _, rec := range res.Records {
		if rec.ScatterBytesSent != 0 || rec.ScatterMsgsSent != 0 {
			t.Errorf("iter %d: p=1 has scatter traffic %+v", rec.Iter, rec)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime {
		t.Errorf("total time differs: %g vs %g", a.TotalTime, b.TotalTime)
	}
	for i := range a.Records {
		if a.Records[i].Time != b.Records[i].Time ||
			a.Records[i].ScatterBytesSent != b.Records[i].ScatterBytesSent {
			t.Fatalf("iteration %d records differ", i)
		}
	}
}

func TestRunAllDistributions(t *testing.T) {
	for _, d := range []string{particle.DistUniform, particle.DistIrregular, particle.DistTwoStream, particle.DistBeam} {
		cfg := base()
		cfg.Distribution = d
		cfg.Iterations = 5
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: %v", d, err)
		}
	}
}

func TestRunAllIndexings(t *testing.T) {
	for _, ix := range []string{sfc.SchemeHilbert, sfc.SchemeSnake, sfc.SchemeRowMajor, sfc.SchemeMorton} {
		cfg := base()
		cfg.Indexing = ix
		cfg.Iterations = 5
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: %v", ix, err)
		}
	}
}

func TestRunHashTableMatchesDirect(t *testing.T) {
	// The duplicate-removal structure must not change physics or traffic
	// volume, only its modelled lookup cost.
	cfgD := base()
	cfgD.Table = commopt.TableDirect
	cfgH := base()
	cfgH.Table = commopt.TableHash
	rd, err := Run(cfgD)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(cfgH)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rd.Records {
		if rd.Records[i].ScatterBytesSent != rh.Records[i].ScatterBytesSent {
			t.Errorf("iter %d: traffic differs direct=%d hash=%d", i,
				rd.Records[i].ScatterBytesSent, rh.Records[i].ScatterBytesSent)
		}
	}
	if rh.ComputeMax <= rd.ComputeMax {
		t.Errorf("hash table should cost more compute: direct=%g hash=%g",
			rd.ComputeMax, rh.ComputeMax)
	}
}

func TestRunWithPeriodicPolicy(t *testing.T) {
	cfg := base()
	cfg.Iterations = 12
	cfg.Policy = policy.NewPeriodic(4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRedistributions != 3 {
		t.Errorf("redistributions %d, want 3 (iters 3, 7, 11)", res.NumRedistributions)
	}
	for _, rec := range res.Records {
		want := (rec.Iter+1)%4 == 0
		if rec.Redistributed != want {
			t.Errorf("iter %d redistributed=%v, want %v", rec.Iter, rec.Redistributed, want)
		}
		if rec.Redistributed && rec.RedistTime <= 0 {
			t.Errorf("iter %d redistributed with zero time", rec.Iter)
		}
	}
}

func TestRunWithDynamicPolicy(t *testing.T) {
	cfg := base()
	cfg.Iterations = 60
	cfg.NumParticles = 4096
	cfg.Thermal = 0.5
	cfg.Policy = policy.NewDynamic()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The drifting irregular distribution must eventually trigger at least
	// one redistribution; the policy must also not fire every iteration.
	if res.NumRedistributions == 0 {
		t.Error("dynamic policy never fired in 60 iterations of a drifting plasma")
	}
	if res.NumRedistributions > 30 {
		t.Errorf("dynamic policy fired %d/60 times — thrashing", res.NumRedistributions)
	}
}

func TestRunMeshDist1D(t *testing.T) {
	cfg := base()
	cfg.MeshDist1D = true
	cfg.Grid = mesh.NewGrid(32, 32)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunDiagnosticsEnergiesFinite(t *testing.T) {
	cfg := base()
	cfg.Diagnostics = true
	cfg.DiagEvery = 2
	cfg.Iterations = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, rec := range res.Records {
		if rec.Iter%2 == 0 {
			seen++
			if math.IsNaN(rec.FieldEnergy) || math.IsInf(rec.FieldEnergy, 0) || rec.FieldEnergy < 0 {
				t.Errorf("iter %d field energy %g", rec.Iter, rec.FieldEnergy)
			}
			if math.IsNaN(rec.KineticEnergy) || rec.KineticEnergy < 0 {
				t.Errorf("iter %d kinetic energy %g", rec.Iter, rec.KineticEnergy)
			}
		}
	}
	if seen != 4 {
		t.Errorf("diagnostics recorded %d times, want 4", seen)
	}
}

func TestRunParallelInvariantAcrossP(t *testing.T) {
	// Physics must not depend on the processor count: compare global
	// energies after a few iterations between p=1 and p=4 runs.
	energies := map[int][2]float64{}
	for _, p := range []int{1, 2, 4} {
		cfg := base()
		cfg.P = p
		cfg.Iterations = 6
		cfg.Diagnostics = true
		cfg.DiagEvery = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := res.Records[5]
		energies[p] = [2]float64{rec.FieldEnergy, rec.KineticEnergy}
	}
	ref := energies[1]
	for _, p := range []int{2, 4} {
		e := energies[p]
		if relDiff(e[0], ref[0]) > 1e-9 || relDiff(e[1], ref[1]) > 1e-9 {
			t.Errorf("p=%d energies %v differ from serial %v", p, e, ref)
		}
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

func TestRunRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Grid: mesh.NewGrid(8, 8), P: -1},
		{Grid: mesh.NewGrid(8, 8), P: 4, NumParticles: -5},
		{Grid: mesh.NewGrid(8, 8), P: 4, Iterations: -1},
		{Grid: mesh.NewGrid(8, 8), P: 4, Dt: 5},
		{Grid: mesh.NewGrid(8, 8), P: 4, Indexing: "zigzag"},
		{Grid: mesh.NewGrid(8, 8), P: 4, Table: "btree"},
		{Grid: mesh.NewGrid(8, 8), P: 128}, // cannot block-distribute
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestValidateDoesNoPerCellWork: validate checks the indexing scheme on a
// one-cell box, so on a 64³ Hilbert mesh it allocates next to nothing where
// building the cell curve takes 2 MiB of tables — and an unknown scheme is
// still refused in both dimensionalities.
func TestValidateDoesNoPerCellWork(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is distorted by the race runtime")
	}
	cfg := base3()
	cfg.Grid3 = mesh3.NewGrid(64, 64, 64)
	cfg = cfg.withDefaults()
	const calls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 4<<10 {
		t.Errorf("validate allocated %d B per call on a 64³ mesh, want < 4 KiB", per)
	}

	for _, c := range []Config{base(), base3()} {
		c.Indexing = "spiral"
		c = c.withDefaults()
		if err := c.validate(); err == nil || !strings.Contains(err.Error(), "sfc: unknown scheme") {
			t.Errorf("%d-D validate of an unknown scheme: %v, want an sfc: unknown scheme error", c.Dims, err)
		}
	}
}

func TestRunZeroIterations(t *testing.T) {
	cfg := base()
	cfg.Iterations = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 || res.NumRedistributions != 0 {
		t.Error("zero-iteration run must produce no records")
	}
	if res.InitTime <= 0 {
		t.Error("initial distribution must still be timed")
	}
}

func TestRunZeroParticles(t *testing.T) {
	cfg := base()
	cfg.NumParticles = 0
	cfg.Verify = false // charge check divides by nothing meaningful
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalParticleCount != 0 {
		t.Errorf("final count %d", res.FinalParticleCount)
	}
}

func TestScatterTrafficGrowsUnderStaticPolicy(t *testing.T) {
	// The core premise of the paper: with static (Lagrangian, never
	// redistributed) assignment, particle subdomains smear out and
	// scatter-phase ghost traffic grows over time.
	cfg := base()
	cfg.NumParticles = 4096
	cfg.Iterations = 80
	cfg.Thermal = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	early := avgBytes(res.Records[2:12])
	late := avgBytes(res.Records[70:80])
	if late <= early {
		t.Errorf("scatter traffic did not grow: early=%g late=%g", early, late)
	}
}

func TestPeriodicBeatsStaticOnDriftingPlasma(t *testing.T) {
	// Figure 16's headline: periodic redistribution outperforms static.
	mk := func(f policy.Factory) float64 {
		cfg := base()
		cfg.NumParticles = 4096
		cfg.Iterations = 120
		cfg.Thermal = 0.5
		cfg.Policy = f
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	static := mk(policy.NewStatic())
	periodic := mk(policy.NewPeriodic(20))
	if periodic >= static {
		t.Errorf("periodic(20) total %.4fs should beat static %.4fs", periodic, static)
	}
}

func avgBytes(recs []IterationRecord) float64 {
	s := 0.0
	for _, r := range recs {
		s += float64(r.ScatterBytesSent)
	}
	return s / float64(len(recs))
}

func TestMachineParamsAffectTimeNotPhysics(t *testing.T) {
	cfgA := base()
	cfgA.Machine = machine.CM5()
	cfgA.Diagnostics = true
	cfgA.DiagEvery = 9
	cfgB := cfgA
	cfgB.Machine = machine.Modern()
	ra, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if ra.TotalTime <= rb.TotalTime {
		t.Errorf("CM-5 (%g) should be slower than a modern machine (%g)", ra.TotalTime, rb.TotalTime)
	}
	if ra.Records[9].FieldEnergy != rb.Records[9].FieldEnergy {
		t.Error("machine model changed the physics")
	}
}

func TestMaxSummaries(t *testing.T) {
	res := &Result{Records: []IterationRecord{
		{ScatterBytesSent: 10, ScatterMsgsSent: 1},
		{ScatterBytesSent: 30, ScatterMsgsSent: 5},
		{ScatterBytesSent: 20, ScatterMsgsSent: 2},
	}}
	if res.MaxScatterBytes() != 30 || res.MaxScatterMsgs() != 5 {
		t.Errorf("summaries: bytes=%d msgs=%d", res.MaxScatterBytes(), res.MaxScatterMsgs())
	}
}
