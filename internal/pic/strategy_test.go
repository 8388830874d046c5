package pic

import (
	"testing"

	"picpar/internal/commtest"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/policy"
)

// spikeBase is the skewed workload the strategy tests run: a dense Gaussian
// clump over a sparse background, where the sparse ranks pay more ghost
// traffic per particle and the equal-count split leaves a measurable
// busy-time imbalance for the cost-weighted split to remove.
func spikeBase() Config {
	return Config{
		Grid:         mesh.NewGrid(128, 64),
		P:            8,
		NumParticles: 4096,
		Distribution: particle.DistSpike,
		Seed:         11,
		Iterations:   30,
		Verify:       true,
		Watchdog:     commtest.Watchdog(),
	}
}

// meanBusyTail averages the per-iteration busy-time imbalance over the
// settled tail of a run.
func meanBusyTail(res *Result, warmup int) float64 {
	sum, n := 0.0, 0
	for i := warmup; i < len(res.Records); i++ {
		sum += res.Records[i].BusyImbalance
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestStrategyCostWeightedReducesBusyImbalance is the headline acceptance
// check: on the spike workload, the cost-weighted split leaves strictly
// less per-rank busy-time imbalance than the equal-count split under the
// same redistribution cadence.
func TestStrategyCostWeightedReducesBusyImbalance(t *testing.T) {
	runWith := func(s policy.Strategy) *Result {
		cfg := spikeBase()
		cfg.Policy = policy.WithStrategy(policy.NewPeriodic(5), s)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalParticleCount != cfg.NumParticles {
			t.Fatalf("strategy %v lost particles: %d, want %d",
				s, res.FinalParticleCount, cfg.NumParticles)
		}
		if got := res.RedistByStrategy[s.String()]; got != res.NumRedistributions || got == 0 {
			t.Fatalf("strategy %v: RedistByStrategy %v vs %d redistributions",
				s, res.RedistByStrategy, res.NumRedistributions)
		}
		return res
	}
	eq := runWith(policy.EqualCount)
	cw := runWith(policy.CostWeighted)

	eqImb, cwImb := meanBusyTail(eq, 10), meanBusyTail(cw, 10)
	if !(cwImb < eqImb) {
		t.Errorf("cost-weighted busy imbalance %g not below equal-count %g", cwImb, eqImb)
	}
	if eqImb <= 1 || cwImb < 1 {
		t.Errorf("imbalances out of range: equal-count %g, cost-weighted %g", eqImb, cwImb)
	}
}

// TestStrategyAdaptiveSelectsCostWeighted: the adaptive policy, given only
// the live cost ledger, picks the cost-weighted layout on the spike
// workload — the Table 1 classification reproduced as a decision.
func TestStrategyAdaptiveSelectsCostWeighted(t *testing.T) {
	cfg := spikeBase()
	cfg.Policy = policy.NewAdaptiveEvery(5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalParticleCount != cfg.NumParticles {
		t.Errorf("particles %d, want %d", res.FinalParticleCount, cfg.NumParticles)
	}
	if res.NumRedistributions == 0 {
		t.Fatal("adaptive policy never redistributed")
	}
	if got := res.RedistByStrategy["cost-weighted"]; got < 1 {
		t.Errorf("adaptive never chose cost-weighted: %v", res.RedistByStrategy)
	}
	for _, rec := range res.Records {
		if rec.Redistributed && rec.RedistStrategy == "" {
			t.Errorf("iter %d redistributed without a recorded strategy", rec.Iter)
		}
		if !rec.Redistributed && rec.RedistStrategy != "" {
			t.Errorf("iter %d records strategy %q without a redistribution",
				rec.Iter, rec.RedistStrategy)
		}
	}
}

// TestStrategyEulerianPinnedRuns: a Lagrangian-policy run whose firings
// rebuild into the Eulerian layout (migrate every particle to its cell's
// owner) keeps all invariants — the migration path composes with the
// policy-driven pipeline, not just with Config.Eulerian.
func TestStrategyEulerianPinnedRuns(t *testing.T) {
	cfg := base()
	cfg.Policy = policy.WithStrategy(policy.NewPeriodic(3), policy.Eulerian)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalParticleCount != cfg.NumParticles {
		t.Errorf("particles %d, want %d", res.FinalParticleCount, cfg.NumParticles)
	}
	if res.NumRedistributions == 0 {
		t.Fatal("pinned Eulerian policy never fired")
	}
	if got := res.RedistByStrategy["eulerian"]; got != res.NumRedistributions {
		t.Errorf("RedistByStrategy %v vs %d redistributions",
			res.RedistByStrategy, res.NumRedistributions)
	}
}

// flipPolicy alternates the layout strategy across firings, exercising
// the Eulerian↔Lagrangian transitions: the incremental sort must rebuild a
// correct SFC split from the mesh-aligned placement and vice versa.
type flipPolicy struct {
	k     int
	fires int
}

func (p *flipPolicy) Decide(iter int, _ float64) policy.Decision {
	if (iter+1)%p.k != 0 {
		return policy.KeepLayout
	}
	p.fires++
	if p.fires%2 == 1 {
		return policy.Rebalance(policy.Eulerian)
	}
	return policy.Rebalance(policy.CostWeighted)
}

func (p *flipPolicy) NotifyRedistribution(int, float64) {}

func (p *flipPolicy) Name() string { return "flip" }

func TestStrategyMixedMovementSequence(t *testing.T) {
	cfg := base()
	cfg.Iterations = 12
	cfg.Policy = func() policy.Policy { return &flipPolicy{k: 3} }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalParticleCount != cfg.NumParticles {
		t.Errorf("particles %d, want %d", res.FinalParticleCount, cfg.NumParticles)
	}
	if res.RedistByStrategy["eulerian"] < 2 || res.RedistByStrategy["cost-weighted"] < 2 {
		t.Errorf("mixed sequence did not run both movements: %v", res.RedistByStrategy)
	}
}

// TestStrategyDeterministicAcrossWorkers: the cost ledger and the weighted
// split live behind the Clock seam, so the cost-weighted and adaptive runs
// stay byte-identical under any shared-memory worker count.
func TestStrategyDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		cfg := spikeBase()
		cfg.Iterations = 15
		cfg.Workers = workers
		cfg.Policy = policy.NewAdaptiveEvery(5)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, workers := range []int{2, 5} {
		got := run(workers)
		if got.TotalTime != want.TotalTime {
			t.Errorf("workers=%d: TotalTime %.9g != %.9g", workers, got.TotalTime, want.TotalTime)
		}
		for i := range want.Records {
			if got.Records[i].BusyImbalance != want.Records[i].BusyImbalance ||
				got.Records[i].RedistStrategy != want.Records[i].RedistStrategy {
				t.Fatalf("workers=%d: iter %d diverged", workers, i)
			}
		}
	}
}

// TestStrategySpikeGeneratorShape: the spike distribution concentrates the
// bulk of the particles in a small fraction of the domain — the property
// the strategy experiments rely on.
func TestStrategySpikeGeneratorShape(t *testing.T) {
	g := mesh.NewGrid(64, 32)
	s, err := particle.Generate(particle.Config{
		N: 8192, Lx: g.Lx, Ly: g.Ly, Distribution: particle.DistSpike, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cx, cy := 0.7*g.Lx, 0.3*g.Ly
	in := 0
	for i := 0; i < s.Len(); i++ {
		dx, dy := s.X[i]-cx, s.Y[i]-cy
		if dx*dx+dy*dy < 0.01*g.Lx*g.Lx {
			in++
		}
	}
	if frac := float64(in) / float64(s.Len()); frac < 0.5 {
		t.Errorf("spike clump holds only %.2f of the particles", frac)
	}
}
