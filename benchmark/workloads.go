package main

import (
	"fmt"
	"sync"
	"time"

	"picpar/internal/comm"
	"picpar/internal/jobspec"
	"picpar/internal/machine"
	"picpar/internal/pic"
)

// ranks is the world size of every simulation the benchmark runs.
const ranks = 4

// workload is one fixed problem. Every workload is described by a
// jobspec.Spec — the same document a user hands picsim or picserve — so the
// program under test sees only generated inputs.
type workload struct {
	name string
	spec jobspec.Spec
	// tcp runs the spec over real loopback sockets (pic.RunRank under
	// comm.LaunchLoopback) instead of the goroutine world.
	tcp bool
	// clients and jobsPerClient are non-zero for the served workload: each
	// repetition is clients closed-loop submitters of jobsPerClient jobs.
	clients, jobsPerClient int
}

// workloads returns the five problems at full or quick size. Repetition
// lengths are 0.5–1 s at full size on the 2-core reference host; the sizes and
// the reason each workload exists are tabulated in README.md.
func workloads(seed int64, quick bool) []workload {
	ws := []workload{
		{name: "steady2d", spec: jobspec.Spec{Mesh: "256x128", Particles: 262144,
			Iterations: 30, Distribution: "uniform", Policy: "static"}},
		{name: "rebalance2d", spec: jobspec.Spec{Mesh: "128x64", Particles: 262144,
			Iterations: 18, Distribution: "irregular", Policy: "periodic:1"}},
		{name: "weighted2d", spec: jobspec.Spec{Mesh: "128x64", Particles: 262144,
			Iterations: 14, Distribution: "spike", Policy: "periodic:1", Strategy: "cost-weighted"}},
		{name: "tcp3d", tcp: true, spec: jobspec.Spec{Dims: 3, Mesh: "32x32x32", Particles: 16384,
			Iterations: 60, Distribution: "uniform", Policy: "static"}},
		{name: "serve", clients: 2, jobsPerClient: 2, spec: jobspec.Spec{Mesh: "64x32", Particles: 32768,
			Iterations: 60, Distribution: "spike", Policy: "adaptive:3", CheckpointEvery: 10}},
	}
	for i := range ws {
		s := &ws[i].spec
		s.Seed = seed
		s.Ranks = ranks
		s.Workers = 1
		if quick {
			s.Particles /= 8
			s.Iterations = max(s.Iterations/3, 6)
			if ws[i].jobsPerClient > 1 {
				ws[i].jobsPerClient = 1
			}
		}
	}
	return ws
}

func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// simRun is what the benchmark observes of one simulation from outside.
type simRun struct {
	res    *pic.Result
	start  time.Time
	wall   time.Duration // the whole call
	stamps []time.Time   // one per OnIteration callback (rank 0)
}

// runSim runs one simulation of spec on the workload's backend, with wrap
// (may be nil) decorating every rank's transport. Rank panics and launch
// failures come back as errors.
func runSim(spec jobspec.Spec, tcp bool, wrap func(comm.Transport) comm.Transport) (run simRun, err error) {
	cfg, err := spec.Config()
	if err != nil {
		return run, err
	}
	cfg.OnIteration = func(pic.IterationRecord) { run.stamps = append(run.stamps, time.Now()) }
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation panicked: %v", p)
		}
	}()
	run.start = time.Now()
	if tcp {
		run.res, err = runLoopback(cfg, wrap)
	} else {
		cfg.Transport = wrap
		run.res, err = pic.Run(cfg)
	}
	run.wall = time.Since(run.start)
	if err == nil && run.res == nil {
		err = fmt.Errorf("simulation returned no result")
	}
	return run, err
}

// runLoopback runs cfg as P TCP-connected ranks inside this process.
func runLoopback(cfg pic.Config, wrap func(comm.Transport) comm.Transport) (*pic.Result, error) {
	var (
		mu      sync.Mutex
		res     *pic.Result
		rankErr error
	)
	_, errs := comm.LaunchLoopback(comm.NetConfig{Params: machine.CM5()}, ranks, wrap, func(t comm.Transport) {
		r, err := pic.RunRank(t, cfg)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && rankErr == nil {
			rankErr = fmt.Errorf("rank %d: %w", t.Rank(), err)
		}
		if r != nil {
			res = r
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, rankErr
}

// simRunner measures a simulation workload.
type simRunner struct {
	w workload
	// wrap decorates every rank's transport in rep (nil when untraced).
	wrap func(comm.Transport) comm.Transport
}

func (s *simRunner) close() {}

func (s *simRunner) setup() (float64, error) {
	spec := s.w.spec
	spec.Iterations = 0
	run, err := runSim(spec, s.w.tcp, nil)
	return run.wall.Seconds(), err
}

func (s *simRunner) rep(verify bool) (repResult, error) {
	spec := s.w.spec
	spec.Verify = verify
	run, err := runSim(spec, s.w.tcp, s.wrap)
	if err != nil {
		return repResult{ops: 1}, err
	}
	return simResult(spec, run), nil
}

// reference reruns a TCP workload on the goroutine world: the repository's
// cross-backend golden property says fingerprint and modelled time agree.
func (s *simRunner) reference() (repResult, bool, error) {
	if !s.w.tcp {
		return repResult{}, false, nil
	}
	run, err := runSim(s.w.spec, false, nil)
	if err != nil {
		return repResult{ops: 1}, true, err
	}
	return simResult(s.w.spec, run), true, nil
}

// simResult reduces one observed run to a repetition result and checks
// what can be checked without a second run.
func simResult(spec jobspec.Spec, run simRun) repResult {
	res := run.res
	r := repResult{
		wall:     run.wall.Seconds(),
		iters:    spec.Iterations,
		simTotal: res.TotalTime,
		simEff:   res.Efficiency,
		print:    fmt.Sprintf("%016x/%d", res.Fingerprint, res.FinalParticleCount),
		ops:      1,
	}
	switch {
	case res.FinalParticleCount != spec.Particles:
		r.notes = append(r.notes, fmt.Sprintf("%d particles at the end, want %d", res.FinalParticleCount, spec.Particles))
	case res.CompletedIterations != spec.Iterations || len(run.stamps) != spec.Iterations:
		r.notes = append(r.notes, fmt.Sprintf("%d iterations completed, %d reported, want %d",
			res.CompletedIterations, len(run.stamps), spec.Iterations))
	}
	r.failed = len(r.notes)
	for i := 1; i < len(run.stamps); i++ {
		r.intervals = append(r.intervals, run.stamps[i].Sub(run.stamps[i-1]).Seconds()*1e3)
	}
	if n := len(run.stamps); n > 1 {
		loop := run.stamps[n-1].Sub(run.stamps[0]).Seconds()
		r.stepsPerS = float64(spec.Particles) * float64(n-1) / loop
	}
	return r
}
