package pic

import "testing"

// TestGoldenDeterminism pins the exact simulated total and the physics
// fingerprint of a reference run. The simulation is fully deterministic, so
// any change to the total means the cost model, the communication protocol,
// or the physics changed — which must be a conscious decision (update the
// constant and the calibration notes in EXPERIMENTS.md together). The
// fingerprint hashes every field slot, halos included, bit for bit, so it
// also catches a changed array layout or a signed zero the total cannot
// see.
func TestGoldenDeterminism(t *testing.T) {
	res, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	got := res.TotalTime
	// Reference recorded after the δ = 1.3 µs CM-5 calibration.
	const recorded = 1.1831223
	if diff := got - recorded; diff > 1e-7 || diff < -1e-7 {
		t.Errorf("reference run total changed: got %.12g, recorded %.12g", got, recorded)
	}
	const fp = 0xbef16b3683e19a9b
	if res.Fingerprint != fp {
		t.Errorf("reference run fingerprint changed: got %016x, recorded %016x", res.Fingerprint, uint64(fp))
	}
}
