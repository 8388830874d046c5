// Package par is the intra-rank shared-memory parallelism layer: a sized
// pool of pre-spawned worker goroutines executing static contiguous range
// splits of a loop. It is the substrate behind the parallel physics kernels
// (gather/push, move, Maxwell sweep, radix sort) and is designed around
// two hard constraints those kernels inherit from the golden pins:
//
//   - Determinism: Split is a pure function of (n, workers, w), so the
//     assignment of loop indices to workers never depends on scheduling,
//     GOMAXPROCS, or timing. Kernels that reduce per-worker results in
//     ascending worker order therefore reproduce the sequential result
//     bit-for-bit (see DESIGN.md "Intra-rank shared-memory parallelism").
//
//   - Zero steady-state allocation: the workers are spawned once per Pool
//     and parked on channels; Run signals them, runs worker 0's share
//     inline on the caller, and waits. Tasks are passed as a pre-stored
//     interface value, so a steady-state Run call allocates nothing.
//
// Worker panics (e.g. a gather miss or invariant violation inside a
// parallel section) are captured, the barrier is completed so no helper is
// left mid-task, and the first panic value (lowest worker index) is
// re-raised on the caller — the same failure surface as the sequential
// loops.
package par

import (
	"fmt"
	"os"
	"strconv"
	"sync"
)

// Task is one parallelisable loop: Work processes the half-open index
// range [lo, hi) as worker w. Implementations are called concurrently from
// multiple goroutines and must only touch worker-private or range-disjoint
// state.
type Task interface {
	Work(worker, lo, hi int)
}

// Pool is a fixed-size worker pool. A Pool with one worker — and the nil
// *Pool, which is one — runs every Task inline on the caller: that IS the
// sequential path of every kernel, so callers never test a pool for nil or
// compare its size to pick a loop.
type Pool struct {
	workers int
	start   []chan struct{} // one wake channel per helper (workers 1..W-1)
	wg      sync.WaitGroup
	quit    chan struct{}
	closed  bool

	// Per-run state: written by Run before the helpers are signalled, read
	// by them after (the channel send orders the accesses).
	task   Task
	n      int
	panics []any // per-worker recovered panic values
}

// New builds a pool of the given size and spawns its helper goroutines.
// Sizes below 1 are clamped to 1 (a Pool is never nil-sized); a 1-worker
// pool spawns nothing.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		quit:    make(chan struct{}),
		panics:  make([]any, workers),
	}
	p.start = make([]chan struct{}, workers-1)
	for h := range p.start {
		p.start[h] = make(chan struct{})
		go p.helper(h + 1)
	}
	return p
}

// Workers returns the pool size; 1 for the nil pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// helper is the loop of worker w (w ≥ 1): park until signalled, run the
// posted task's share, check in, repeat until the pool closes.
func (p *Pool) helper(w int) {
	for {
		select {
		case <-p.quit:
			return
		case <-p.start[w-1]:
			lo, hi := Split(p.n, p.workers, w)
			p.runOne(w, lo, hi)
			p.wg.Done()
		}
	}
}

// runOne executes one worker's share with panic capture.
func (p *Pool) runOne(w, lo, hi int) {
	defer p.capture(w)
	p.task.Work(w, lo, hi)
}

func (p *Pool) capture(w int) {
	if v := recover(); v != nil {
		p.panics[w] = v
	}
}

// Run executes t over [0, n) split statically across the pool's workers
// and returns when every share has completed. Worker 0's share runs inline
// on the caller. If any worker panicked, the lowest-indexed panic value is
// re-raised after the barrier (so no helper is ever left mid-task).
func (p *Pool) Run(n int, t Task) {
	if p != nil && p.closed {
		panic("par: Run on a closed Pool")
	}
	if p.Workers() == 1 {
		t.Work(0, 0, n)
		return
	}
	p.task, p.n = t, n
	for i := range p.panics {
		p.panics[i] = nil
	}
	p.wg.Add(p.workers - 1)
	for _, c := range p.start {
		c <- struct{}{}
	}
	lo, hi := Split(n, p.workers, 0)
	p.runOne(0, lo, hi)
	p.wg.Wait()
	p.task = nil
	for _, v := range p.panics {
		if v != nil {
			panic(v)
		}
	}
}

// Close terminates the helper goroutines. The pool must be idle (no Run in
// flight); Run after Close panics. Close is idempotent, and a no-op on the
// nil pool.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	close(p.quit)
}

// Split returns worker w's half-open share [lo, hi) of n items under the
// pool's static contiguous partition. It is a pure function: ranges are
// ascending in w, disjoint, and cover [0, n) exactly — the property the
// ordered reductions rely on for bit-deterministic results.
func Split(n, workers, w int) (lo, hi int) {
	return w * n / workers, (w + 1) * n / workers
}

// EnvVar is the environment variable naming the default worker count.
const EnvVar = "PICPAR_PROCS"

// warnf emits configuration warnings; a package variable so tests can
// capture them. Default: stderr. (Mirrors comm.warnf / EnvWatchdog.)
var warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// EnvProcs returns the worker count configured in the PICPAR_PROCS
// environment variable, or fallback when it is unset. A malformed,
// zero or negative value is rejected loudly — a warning naming the bad
// value, then the fallback — so a typo can never silently change how many
// cores a rank uses (the EnvWatchdog precedent).
func EnvProcs(fallback int) int {
	v := os.Getenv(EnvVar)
	if v == "" {
		return fallback
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		warnf("par: %s=%q is not an integer (%v); using fallback %d", EnvVar, v, err, fallback)
		return fallback
	}
	if n < 1 {
		warnf("par: %s=%d is not a positive worker count; using fallback %d", EnvVar, n, fallback)
		return fallback
	}
	return n
}
