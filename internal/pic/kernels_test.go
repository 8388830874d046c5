package pic

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/raceflag"
)

// TestCustomParticlesValidated: a position outside [0, L) or a non-finite
// momentum is refused with a *ParticleError naming the first offender —
// before the periodic wrap can spin on it, NaN can index out of range, or a
// just-outside position can deposit with mismatched cell and weights.
func TestCustomParticlesValidated(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name  string
		dims  int
		index int
		field string
		set   func(s *particle.Store, i int)
	}{
		{"x +Inf", 2, 3, "x", func(s *particle.Store, i int) { s.X[i] = inf }},
		{"x huge", 2, 0, "x", func(s *particle.Store, i int) { s.X[i] = 1e300 }},
		{"x NaN", 2, 5, "x", func(s *particle.Store, i int) { s.X[i] = nan }},
		{"x just past the edge", 2, 2, "x", func(s *particle.Store, i int) { s.X[i] = 8 + 0.3 }},
		{"x == L", 2, 1, "x", func(s *particle.Store, i int) { s.X[i] = 8 }},
		{"y negative", 2, 4, "y", func(s *particle.Store, i int) { s.Y[i] = -1e-9 }},
		{"px NaN", 2, 6, "px", func(s *particle.Store, i int) { s.Px[i] = nan }},
		{"pz -Inf", 2, 7, "pz", func(s *particle.Store, i int) { s.Pz[i] = -inf }},
		{"3-D z == L", 3, 2, "z", func(s *particle.Store, i int) { s.Z[i] = 4 }},
		{"3-D y NaN", 3, 0, "y", func(s *particle.Store, i int) { s.Y[i] = nan }},
		{"3-D py +Inf", 3, 7, "py", func(s *particle.Store, i int) { s.Py[i] = inf }},
		{"first offender wins", 2, 1, "y", func(s *particle.Store, i int) { s.Y[i] = -2; s.X[i+1] = nan }},
	}
	for _, tc := range cases {
		cfg := Config{Dims: tc.dims, Grid: mesh.NewGrid(8, 4), Grid3: mesh.NewGrid3(8, 4, 4), P: 2, Iterations: 1}
		s := particle.NewStore(8, -1, 1)
		if tc.dims == 3 {
			s = particle.NewStore3(8, -1, 1)
		}
		for i := 0; i < 8; i++ {
			if tc.dims == 3 {
				s.Append3(float64(i)+0.5, 1.5, 2.5, 0.1, 0, -0.1, float64(i))
			} else {
				s.Append(float64(i)+0.5, 1.5, 0.1, 0, -0.1, float64(i))
			}
		}
		cfg.CustomParticles = s
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: in-domain population refused: %v", tc.name, err)
		}
		tc.set(s, tc.index)
		_, err := Run(cfg)
		var pe *ParticleError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got %v, want a *ParticleError", tc.name, err)
			continue
		}
		if pe.Index != tc.index || pe.Field != tc.field {
			t.Errorf("%s: error names [%d].%s, want [%d].%s", tc.name, pe.Index, pe.Field, tc.index, tc.field)
		}
	}
}

// TestGatherPhaseWarmAllocations: the ghost set of a 3-D run keeps creeping
// up by a few points per iteration while particles diffuse — here still
// past iteration 60, where rank 0 holds about 2 900 of its 3 072 non-owned
// points — and the gather phase used to reallocate its whole reply buffer
// by exact fit each time (megabytes per iteration at 32³; 11 MB over this
// window). Twenty warm iterations must now allocate next to nothing there.
// The warm-up is long enough that the buffer's last geometric regrowth
// falls before the window.
func TestGatherPhaseWarmAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is distorted by the race runtime")
	}
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1 // sample every allocation: exact byte counts
	defer func() { runtime.MemProfileRate = old }()

	const warm, measured = 100, 20
	var before, after int64
	cfg := base3()
	cfg.P = 4
	cfg.NumParticles = 8192
	cfg.Distribution = particle.DistUniform
	cfg.Verify = false
	cfg.Iterations = warm + measured
	cfg.OnIteration = func(rec IterationRecord) {
		switch rec.Iter {
		case warm - 1:
			before = bytesAllocatedBy("gatherAndPushPhase")
		case warm + measured - 1:
			after = bytesAllocatedBy("gatherAndPushPhase")
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if before == 0 {
		t.Fatal("the warm-up allocated nothing in gatherAndPushPhase: the profile attribution is broken")
	}
	got := after - before
	t.Logf("iterations %d..%d allocated %d bytes in gatherAndPushPhase (%d before them)", warm, warm+measured-1, got, before)
	if got >= 64<<10 {
		t.Errorf("%d warm iterations allocated %d bytes in gatherAndPushPhase, want < 64 KiB", measured, got)
	}
}

// bytesAllocatedBy returns the cumulative bytes of the allocations made
// directly by the named function (through runtime and slices helpers, not
// through other callees), from the heap profile.
func bytesAllocatedBy(fn string) int64 {
	runtime.GC() // the profile publishes allocations two collections late
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, 2*n)
	}
	var total int64
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			fr, more := frames.Next()
			if !strings.HasPrefix(fr.Function, "runtime.") && !strings.HasPrefix(fr.Function, "slices.") {
				if strings.HasSuffix(fr.Function, "."+fn) {
					total += recs[i].AllocBytes
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
