package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// repResult is one repetition of a workload's fixed problem, observed from
// outside the program.
type repResult struct {
	wall      float64   // s around the whole operation
	stepsPerS float64   // particle·iterations per second
	intervals []float64 // ms per iteration: gaps between iteration boundaries (per-job means when served)
	iters     int       // iterations executed
	simTotal  float64   // modelled CM-5 seconds (Σ over jobs when served)
	simEff    float64   // modelled efficiency (mean over jobs when served)
	print     string    // physics fingerprint(s); must repeat exactly
	ops       int       // operations attempted: simulation runs or served jobs
	failed    int
	notes     []string // why operations failed
}

// runner runs one workload's operations; the measurement loop below is the
// same for simulations and for the served workload.
type runner interface {
	// setup times one zero-iteration operation: everything a run pays
	// before its first time step.
	setup() (seconds float64, err error)
	// rep runs the fixed problem once. verify turns on the program's own
	// per-iteration invariant checks (charge and particle conservation).
	rep(verify bool) (repResult, error)
	// reference returns the result the timed repetitions must reproduce
	// from an independent path, or ok=false when the workload has none.
	reference() (r repResult, ok bool, err error)
	close()
}

// measurement is everything one invocation collected with tracing off.
type measurement struct {
	reps      []repResult
	setups    []float64 // s
	mallocs   []float64 // per iteration, one per repetition
	allocKB   []float64 // per iteration, one per repetition
	refKernel []float64 // ms, one per round
	wall      float64   // s over the timed rounds
	cpu       float64   // rusage CPU seconds over the timed rounds
	gcCycles  uint32
	gcPauseMs float64
	attempted int
	failed    int
	notes     []string
}

const (
	minReps   = 3
	minSetups = 7
)

// measure runs the measurement protocol: one untimed verified warm-up, then
// rounds of (one set-up sample, GC, host reference kernel, one timed
// repetition) until budget has elapsed. Set-up samples are interleaved with
// repetitions so that a slow-host episode costs a few samples of each, not
// all of one.
func measure(r runner, budget time.Duration, minRounds int) measurement {
	var m measurement
	fail := func(format string, args ...any) {
		m.failed++
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
	// count books one repetition's operations and says whether it is usable.
	count := func(rep repResult, err error, what string) bool {
		ops := max(rep.ops, 1)
		m.attempted += ops
		m.failed += rep.failed
		m.notes = append(m.notes, rep.notes...)
		if err != nil {
			m.failed += ops - rep.failed - 1
			fail("%s: %v", what, err)
			return false
		}
		return rep.failed == 0
	}
	sampleSetup := func() {
		s, err := r.setup()
		m.attempted++
		if err != nil {
			fail("set-up: %v", err)
			return
		}
		m.setups = append(m.setups, s)
	}

	// The warm-up yields the reference fingerprint. It runs with invariant
	// checks, which charge modelled time, so sim_total_s is pinned by an
	// unchecked run instead: the independent reference when the workload
	// has one, else the first timed repetition.
	warm, err := r.rep(true)
	if !count(warm, err, "warm-up") {
		return m
	}
	want := warm.print
	haveSim, wantTotal, wantEff := false, 0.0, 0.0
	if ref, ok, err := r.reference(); ok && count(ref, err, "reference") {
		if ref.print != want {
			fail("reference fingerprint %s, warm-up %s", ref.print, want)
		}
		haveSim, wantTotal, wantEff = true, ref.simTotal, ref.simEff
	}

	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&ms0)
	gcCycles, gcPause := ms0.NumGC, ms0.PauseTotalNs
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		sampleSetup()

		// The collector must be idle before the reference kernel and the
		// repetition: a background cycle over the previous round's garbage
		// would slow both by an amount that has nothing to do with either.
		runtime.GC()
		debug.FreeOSMemory()
		m.refKernel = append(m.refKernel, refKernelMs())
		runtime.ReadMemStats(&ms0)
		rep, err := r.rep(false)
		runtime.ReadMemStats(&ms1)
		if !count(rep, err, fmt.Sprintf("repetition %d", round)) {
			continue
		}
		if rep.print != want {
			fail("repetition %d: fingerprint %s, warm-up %s", round, rep.print, want)
		}
		if !haveSim {
			haveSim, wantTotal, wantEff = true, rep.simTotal, rep.simEff
		}
		if rep.simTotal != wantTotal || rep.simEff != wantEff {
			fail("repetition %d: sim_total_s %.9g / efficiency %.9g, want %.9g / %.9g",
				round, rep.simTotal, rep.simEff, wantTotal, wantEff)
		}
		m.reps = append(m.reps, rep)
		m.mallocs = append(m.mallocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(rep.iters))
		m.allocKB = append(m.allocKB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(rep.iters))
	}
	m.wall = time.Since(start).Seconds()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	m.cpu = tvSeconds(ru1.Utime) + tvSeconds(ru1.Stime) - tvSeconds(ru0.Utime) - tvSeconds(ru0.Stime)
	m.gcCycles = ms1.NumGC - gcCycles
	m.gcPauseMs = float64(ms1.PauseTotalNs-gcPause) / 1e6

	for len(m.setups) < minSetups && m.failed == 0 {
		sampleSetup()
	}
	return m
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// endToEnd derives the end-to-end metrics. Wall-clock figures report the
// best repetition, which repeated better than the median one on every
// workload (README.md has the numbers); counts report the median
// repetition, and set-up the median sample.
func (m *measurement) endToEnd() map[string]float64 {
	best := func(f func(repResult) float64, lower bool) float64 {
		v := f(m.reps[0])
		for _, r := range m.reps[1:] {
			if x := f(r); (x < v) == lower {
				v = x
			}
		}
		return v
	}
	return map[string]float64{
		"setup_s":              median(m.setups),
		"run_wall_s":           best(func(r repResult) float64 { return r.wall }, true),
		"particle_steps_per_s": best(func(r repResult) float64 { return r.stepsPerS }, false),
		"iter_wall_ms_p50":     best(func(r repResult) float64 { return median(r.intervals) }, true),
		"allocs_per_iter":      median(m.mallocs),
		"alloc_kb_per_iter":    median(m.allocKB),
		"sim_total_s":          m.reps[0].simTotal,
		"sim_efficiency":       m.reps[0].simEff,
	}
}

// pooledIntervals returns every repetition's per-iteration intervals.
func (m *measurement) pooledIntervals() []float64 {
	var all []float64
	for _, r := range m.reps {
		all = append(all, r.intervals...)
	}
	return all
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is not modified. An empty v yields 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// refKernelMs times a fixed scatter-add loop owned by the benchmark: the
// same work every round, so its spread across rounds is the host's drift,
// not the program's.
func refKernelMs() float64 {
	const slots, updates = 1 << 16, 1 << 21
	acc := make([]float64, slots)
	best := time.Duration(0)
	for try := 0; try < 3; try++ { // the fastest of three: the host, not a stray preemption
		x := uint64(0x9e3779b97f4a7c15)
		t0 := time.Now()
		for i := 0; i < updates; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc[x&(slots-1)] += float64(i)
		}
		if d := time.Since(t0); try == 0 || d < best {
			best = d
		}
	}
	refSink = acc[0]
	return float64(best) / 1e6
}

// refSink keeps the reference kernel's result live.
var refSink float64
