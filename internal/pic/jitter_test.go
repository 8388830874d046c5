package pic

import (
	"fmt"
	"math/rand"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/policy"
)

// chaosBase is the configuration the timing tests run: small enough to be
// quick, irregular enough that redistribution traffic is real. The Periodic
// policy makes the redistribution schedule independent of measured times,
// so the physics must not move when message timing does (the Dynamic
// policy's schedule legitimately shifts with the clock — that is its job).
func chaosBase() Config {
	cfg := base()
	cfg.Policy = policy.NewPeriodic(3)
	return cfg
}

// chaosBase3 mirrors chaosBase in three dimensions.
func chaosBase3() Config {
	cfg := base3()
	cfg.Policy = policy.NewPeriodic(3)
	return cfg
}

// jitter delays every non-self receive by a seeded pseudo-random amount of
// simulated time, as a slower or busier network would: the receiving
// rank's clock jumps forward after the message arrives.
type jitter struct {
	comm.Transport
	rng *rand.Rand
}

// withJitter wraps each rank in a jitter seeded by seed and its rank.
func withJitter(seed int64) func(comm.Transport) comm.Transport {
	return func(tr comm.Transport) comm.Transport {
		return &jitter{Transport: tr, rng: rand.New(rand.NewSource(seed + int64(tr.Rank())))}
	}
}

func (j *jitter) Recv(src int, tag comm.Tag) (any, int) {
	body, n := j.Transport.Recv(src, tag)
	if src != j.Rank() {
		j.Clock().Advance(1e-4 * j.rng.Float64())
	}
	return body, n
}

// checkJitteredPhysics runs cfg undisturbed and again under Tracer ∘ jitter
// seeded by seed — in process, or over loopback TCP when tcp is set — and
// fails unless the second run ends with a different simulated time but the
// same physics. Message timing moves clocks and nothing else.
func checkJitteredPhysics(t *testing.T, cfg Config, tcp bool, seed int64) {
	t.Helper()
	clean := runFingerprinted(t, cfg)
	tracer := comm.NewTracer()
	jit := withJitter(seed)
	wrap := func(tr comm.Transport) comm.Transport { return tracer.Wrap(jit(tr)) }
	var res *Result
	if tcp {
		cfg.Diagnostics, cfg.DiagEvery = true, 1
		res = runNetBase(t, cfg, wrap)
	} else {
		cfg.Transport = wrap
		res = runFingerprinted(t, cfg)
	}
	if !equalFingerprints(fingerprint(res), fingerprint(clean)) || res.Fingerprint != clean.Fingerprint {
		t.Errorf("physics moved under receive jitter: fingerprint %016x, undisturbed %016x",
			res.Fingerprint, clean.Fingerprint)
	}
	if res.NumRedistributions == 0 {
		t.Error("no redistribution ran — the exchange under jitter went unexercised")
	}
	if res.TotalTime == clean.TotalTime {
		t.Errorf("TotalTime %.9g equals the undisturbed run's — the jitter delayed nothing", res.TotalTime)
	}
	if tracer.Total().MsgsSent == 0 {
		t.Error("tracer observed no traffic through the jittered transport")
	}
}

// TestChaosSimByteIdenticalUnderReliable: the 2-D simulation on the
// lossless transport, with every receive delayed by seeded jitter, ends
// with the undisturbed physics under each of three seeds.
func TestChaosSimByteIdenticalUnderReliable(t *testing.T) {
	for _, seed := range []int64{0, 100, 200} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkJitteredPhysics(t, chaosBase(), false, seed)
		})
	}
}
