package pic

import (
	"testing"
	"time"

	"picpar/internal/comm"
	"picpar/internal/machine"
	"picpar/internal/policy"
)

// chaosBase is the end-to-end configuration the chaos soak runs: small
// enough to be quick, irregular enough that redistribution traffic is real.
// The Periodic policy makes the redistribution schedule independent of
// measured times, so physics outputs must be byte-identical under any
// recovered perturbation (the Dynamic policy's schedule legitimately shifts
// with perturbed clocks — that is its job).
func chaosBase() Config {
	cfg := base()
	cfg.Policy = policy.NewPeriodic(3)
	return cfg
}

// physicsFingerprint reduces a run to the outputs that must survive
// perturbation byte-for-byte: particle conservation, the redistribution
// schedule, and the energy histories. Timing and traffic fields are
// excluded by design — faults perturb clocks and message counts.
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

// e2ePlans are the seeded fault plans the end-to-end soak runs under.
var e2ePlans = []comm.FaultPlan{
	{Seed: 0xA11CE, DropProb: 0.05, MaxDropAttempts: 3},
	{Seed: 0xB0B, DupProb: 0.05, ReorderProb: 0.05},
	{Seed: 0xCAB00D1E, DropProb: 0.03, MaxDropAttempts: 2, DupProb: 0.03,
		ReorderProb: 0.03, DelayProb: 0.05, MaxDelay: 1e-3},
}

// TestChaosSimByteIdenticalUnderReliable: the full simulation, perturbed by
// every seeded plan but recovered by Reliable, reproduces the fault-free
// physics exactly.
func TestChaosSimByteIdenticalUnderReliable(t *testing.T) {
	cfg := chaosBase()
	cfg.Diagnostics = true
	cfg.DiagEvery = 1
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(clean)

	for pi, plan := range e2ePlans {
		faulty := comm.NewFaulty(plan)
		rel := comm.NewReliable(comm.ReliableConfig{})
		perturbed := cfg
		perturbed.Transport = func(tr comm.Transport) comm.Transport {
			return rel.Wrap(faulty.Wrap(tr))
		}
		res, err := Run(perturbed)
		if err != nil {
			t.Fatalf("plan %d: %v", pi, err)
		}
		got := fingerprint(res)
		if !equalFingerprints(got, want) {
			t.Errorf("plan %d: physics diverged under recovered faults\n got %+v\nwant %+v",
				pi, got, want)
		}
		if res.FailedRedistributions != 0 {
			t.Errorf("plan %d: %d redistributions failed under a recoverable plan",
				pi, res.FailedRedistributions)
		}
		c := faulty.Counts()
		if c.Drops+c.Dups+c.Reorders+c.Delays == 0 {
			t.Errorf("plan %d injected no faults — soak exercised nothing", pi)
		}
		if res.TotalTime <= clean.TotalTime {
			t.Errorf("plan %d: perturbed run not slower than clean (%.9g <= %.9g) — recovery charged no time",
				pi, res.TotalTime, clean.TotalTime)
		}
	}
}

// TestChaosFaultFreeReliableRecoversNothing: on a fault-free transport a
// whole simulation under the Reliable layer reproduces the bare run's
// physics, never fires recovery, and costs nothing in simulated time — the
// redistribution's discard vote rides the timing Expose every run pays.
// The comm-level TestReliableFaultFreeTransparent covers the collectives
// one by one; this covers the time step's real message mix (tagged gather
// replies, redistribution all-to-many) end to end, in 2-D and 3-D.
func TestChaosFaultFreeReliableRecoversNothing(t *testing.T) {
	for _, base := range []func() Config{chaosBase, chaosBase3} {
		clean := runFingerprinted(t, base())
		rel := comm.NewReliable(comm.ReliableConfig{})
		cfg := base()
		cfg.Transport = rel.Wrap
		res := runFingerprinted(t, cfg)
		dims := res.Config.Dims
		if !equalFingerprints(fingerprint(res), fingerprint(clean)) {
			t.Errorf("%d-D: fault-free Reliable run diverged from the bare run", dims)
		}
		if s := rel.Stats(); s != (comm.RecoveryStats{}) {
			t.Errorf("%d-D: fault-free run exercised recovery: %+v", dims, s)
		}
		if res.NumRedistributions == 0 {
			t.Errorf("%d-D: no redistribution ran — the discard vote went unexercised", dims)
		}
		if res.TotalTime != clean.TotalTime || res.RedistTime != clean.RedistTime {
			t.Errorf("%d-D: fault-free Reliable run charged simulated time: TotalTime %.9g vs bare %.9g, RedistTime %.9g vs bare %.9g",
				dims, res.TotalTime, clean.TotalTime, res.RedistTime, clean.RedistTime)
		}
	}
}

// TestChaosSimFailsLoudlyWithoutReliable: the same perturbed simulation
// without a reliability layer must abort with a diagnostic DeliveryError,
// never hang (the armed watchdog converts a hang into a different panic and
// fails the assertion).
func TestChaosSimFailsLoudlyWithoutReliable(t *testing.T) {
	cfg := chaosBase()
	cfg.Watchdog = 2 * time.Second // peers of the failed rank are genuinely stuck
	faulty := comm.NewFaulty(e2ePlans[0])
	cfg.Transport = faulty.Wrap
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("perturbed run without Reliable did not fail")
		}
		de := comm.AsDeliveryError(e)
		if de == nil {
			t.Fatalf("panic %T (%v), want a *DeliveryError", e, e)
		}
		if de.Reason == "" || de.Peer < 0 || de.Peer >= cfg.P {
			t.Errorf("DeliveryError lacks diagnostics: %v", de)
		}
	}()
	_, _ = Run(cfg)
}

// redistKillPlan drops every steady-state redistribution-exchange message
// more times than the test's retry budget allows, while leaving everything
// else clean: only the all-to-many payload exchange, only during the
// redistribution phase, and only after the warm-up grace covering the
// initial distribution's own exchanges (which run outside the degradable
// scope — there is no previous alignment to fall back to at init).
func redistKillPlan() comm.FaultPlan {
	return comm.FaultPlan{
		Seed:            99,
		DropProb:        1,
		MaxDropAttempts: 64, // attempts uniform in 1..64: almost every message exceeds MaxRetries=2
		Tags:            []comm.Tag{comm.TagCollAllToMany},
		Phases:          []machine.Phase{machine.PhaseRedistribute},
		MinSeq:          2, // initial distribution sends at most 2 all-to-many messages per link
	}
}

// TestChaosSimDegradesGracefully: with redistribution exchanges made
// unrecoverable, every triggered redistribution is discarded — the run
// completes, keeps the previous alignment (conservation still holds), burns
// the wasted time, and records the failures.
func TestChaosSimDegradesGracefully(t *testing.T) {
	cfg := chaosBase()
	faulty := comm.NewFaulty(redistKillPlan())
	rel := comm.NewReliable(comm.ReliableConfig{MaxRetries: 2})
	cfg.Transport = func(tr comm.Transport) comm.Transport {
		return rel.Wrap(faulty.Wrap(tr))
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRedistributions == 0 {
		t.Fatal("no redistribution failed under a redistribution-killing plan")
	}
	if res.NumRedistributions != 0 {
		t.Errorf("%d redistributions succeeded despite certain exchange failure",
			res.NumRedistributions)
	}
	if res.WastedRedistTime <= 0 {
		t.Error("failed attempts charged no wasted time")
	}
	if res.FinalParticleCount != cfg.NumParticles {
		t.Errorf("particles lost across failed redistributions: %d, want %d",
			res.FinalParticleCount, cfg.NumParticles)
	}
	for _, rec := range res.Records {
		if rec.RedistFailed && rec.Redistributed {
			t.Errorf("iter %d marked both failed and redistributed", rec.Iter)
		}
		if rec.RedistFailed && rec.RedistTime <= 0 {
			t.Errorf("iter %d failed redistribution recorded no attempt time", rec.Iter)
		}
	}
	// The trigger must keep retrying: with Periodic(3) over 10 iterations,
	// every one of the scheduled attempts fails (none is "used up").
	if res.FailedRedistributions < 2 {
		t.Errorf("only %d failed attempts recorded — trigger did not retry", res.FailedRedistributions)
	}
}

// TestChaosAdaptiveRollsBackStrategyState: under the Adaptive policy with
// every redistribution exchange made unrecoverable, each attempt's chosen
// strategy is rolled back along with the layout — the policy is never
// notified, no strategy is committed, and the chooser keeps firing at every
// scheduled trigger (its own ledger allgather rides the clean allgather
// tag, outside the killed all-to-many exchange).
func TestChaosAdaptiveRollsBackStrategyState(t *testing.T) {
	cfg := chaosBase()
	cfg.Policy = policy.NewAdaptiveEvery(3)
	faulty := comm.NewFaulty(redistKillPlan())
	rel := comm.NewReliable(comm.ReliableConfig{MaxRetries: 2})
	cfg.Transport = func(tr comm.Transport) comm.Transport {
		return rel.Wrap(faulty.Wrap(tr))
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRedistributions != 0 {
		t.Errorf("%d redistributions succeeded despite certain exchange failure",
			res.NumRedistributions)
	}
	if len(res.RedistByStrategy) != 0 {
		t.Errorf("failed attempts committed strategies: %v", res.RedistByStrategy)
	}
	if res.FailedRedistributions < 2 {
		t.Errorf("only %d failed attempts — the adaptive trigger did not retry",
			res.FailedRedistributions)
	}
	if res.FinalParticleCount != cfg.NumParticles {
		t.Errorf("particles lost across failed adaptive attempts: %d, want %d",
			res.FinalParticleCount, cfg.NumParticles)
	}
	for _, rec := range res.Records {
		if rec.RedistFailed && rec.RedistStrategy == "" {
			t.Errorf("iter %d failed attempt recorded no chosen strategy", rec.Iter)
		}
	}
}

// TestChaosSimVerifyInvariantsHoldAfterDegradation: the conservation checks
// (Verify) pass across discarded redistributions — the rollback keeps a
// consistent alignment, not a corrupted half-exchange.
func TestChaosSimVerifyInvariantsHoldAfterDegradation(t *testing.T) {
	cfg := chaosBase()
	cfg.Verify = true
	faulty := comm.NewFaulty(redistKillPlan())
	rel := comm.NewReliable(comm.ReliableConfig{MaxRetries: 2})
	cfg.Transport = func(tr comm.Transport) comm.Transport {
		return rel.Wrap(faulty.Wrap(tr))
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRedistributions == 0 {
		t.Fatal("plan did not exercise degradation")
	}
}
