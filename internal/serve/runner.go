// The Runner seam: how the daemon actually executes one job attempt.
//
// LocalRunner runs the simulation in-process over the goroutine backend —
// the fast path for tests and single-host use. ProcessRunner launches a
// coordinator plus one OS process per rank under elastic supervision: a
// dead rank is respawned with capped-exponential backoff until the budget
// runs dry, the whole worker world lives in one process group whose id is
// persisted so a restarted daemon can kill orphans, and a drain request
// becomes SIGTERM to the group (workers checkpoint at the next iteration
// boundary and exit cleanly). Both runners honour the same contract, so
// every state-machine test against LocalRunner also covers the daemon's
// handling of ProcessRunner outcomes.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"picpar/internal/comm"
	"picpar/internal/pic"
)

// RunContext is everything a Runner gets about the attempt it executes.
type RunContext struct {
	Manifest Manifest // snapshot of the job at attempt start
	Dir      string   // the job directory (manifest, ckpt/, result.json)
	// OnIteration receives each completed iteration's diagnostics. It must
	// not block (the serve hub drops frames, never stalls).
	OnIteration func(IterEvent)
	// SetPGID persists the attempt's worker process group (ProcessRunner
	// only) so a restarted daemon can kill orphans before relaunching.
	SetPGID func(int)
	// Log emits operational lines (respawns, backoff waits) to the daemon
	// log. Never nil when the server drives the runner.
	Log func(format string, args ...any)
}

// Runner executes one attempt of a job. Cancelling ctx requests a graceful
// drain: the runner should stop at an iteration boundary with a final
// checkpoint and return a Stopped result (context.Cause distinguishes
// drain from cancel from deadline at the caller). A returned error means
// the attempt died; the job directory's checkpoints decide where the next
// attempt resumes.
type Runner interface {
	Run(ctx context.Context, rc RunContext) (*JobResult, error)
}

// IterEventOf distills a pic iteration record to its wire form.
func IterEventOf(rec pic.IterationRecord) IterEvent {
	return IterEvent{
		Iter:           rec.Iter,
		Time:           rec.Time,
		Compute:        rec.Compute,
		Redistributed:  rec.Redistributed,
		RedistStrategy: rec.RedistStrategy,
		BusyImbalance:  rec.BusyImbalance,
		FieldEnergy:    rec.FieldEnergy,
		KineticEnergy:  rec.KineticEnergy,
	}
}

// ResultOf distills a pic result.
func ResultOf(res *pic.Result) *JobResult {
	return &JobResult{
		TotalTime:           res.TotalTime,
		Fingerprint:         fmt.Sprintf("%016x", res.Fingerprint),
		InitTime:            res.InitTime,
		ComputeMax:          res.ComputeMax,
		Efficiency:          res.Efficiency,
		NumRedistributions:  res.NumRedistributions,
		FinalParticleCount:  res.FinalParticleCount,
		CompletedIterations: res.CompletedIterations,
		Stopped:             res.Stopped,
	}
}

// jobConfig builds the pic.Config for one attempt: the job's spec, pinned
// to the job's own checkpoint directory, always recovering (a first
// attempt over an empty directory is byte-identical to a fresh start).
func jobConfig(rc RunContext) (pic.Config, error) {
	cfg, err := rc.Manifest.Spec.Config()
	if err != nil {
		return pic.Config{}, err
	}
	cfg.CheckpointDir = CheckpointDir(rc.Dir)
	cfg.Recover = true
	return cfg, nil
}

// LocalRunner executes the attempt in-process on the goroutine backend.
type LocalRunner struct{}

func (LocalRunner) Run(ctx context.Context, rc RunContext) (*JobResult, error) {
	cfg, err := jobConfig(rc)
	if err != nil {
		return nil, err
	}
	var stop atomic.Bool
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			stop.Store(true)
		case <-done:
		}
	}()
	cfg.StopRequested = stop.Load
	if rc.OnIteration != nil {
		on := rc.OnIteration
		cfg.OnIteration = func(rec pic.IterationRecord) { on(IterEventOf(rec)) }
	}
	res, runErr := runLocal(cfg)
	if runErr != nil {
		return nil, runErr
	}
	return ResultOf(res), nil
}

// runLocal converts a rank panic into an error instead of taking the
// daemon down with a sick job.
func runLocal(cfg pic.Config) (res *pic.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: run panicked: %v", r)
		}
	}()
	return pic.Run(cfg)
}

// ProcessRunner executes the attempt as one coordinator plus P worker
// processes under elastic supervision.
type ProcessRunner struct {
	// Command builds the (unstarted) worker command for one rank of the
	// job: typically the daemon binary re-executed in -worker mode. The
	// worker must join the coordinator at coord, run its rank with
	// recovery on, emit IterEvent JSONL on stdout (rank 0), write
	// result.json (rank 0) and exit 0 — or exit 0 with a Stopped result
	// after a SIGTERM drain.
	Command func(rc RunContext, coord string, rank int) *exec.Cmd

	// Grace bounds how long peers of a failed rank may take to fail on
	// their own before the supervisor kills them. Default 15s.
	Grace time.Duration
	// RespawnBudget is the total respawns one attempt may consume.
	// Default 2*P.
	RespawnBudget int
	// Backoff is the wait before the first respawn, doubling per respawn
	// up to MaxBackoff. Defaults 250ms / 5s.
	Backoff    time.Duration
	MaxBackoff time.Duration
}

func (p ProcessRunner) Run(ctx context.Context, rc RunContext) (*JobResult, error) {
	cfg, err := jobConfig(rc) // validates the spec before any process starts
	if err != nil {
		return nil, err
	}
	ranks := cfg.P

	co, err := comm.StartCoordinator("127.0.0.1:0", ranks, 0)
	if err != nil {
		return nil, fmt.Errorf("serve: coordinator: %w", err)
	}
	defer co.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.ServeElastic() }()

	// A stale result.json from a previous attempt must never pass for this
	// attempt's outcome.
	RemoveResult(rc.Dir)

	// All workers share one process group, led by the first spawn; the
	// group id is persisted so a daemon killed and restarted mid-job can
	// kill the whole orphaned world before relaunching.
	pgid := 0
	spawn := func(rank int) (*comm.RankProc, error) {
		cmd := p.Command(rc, co.Addr(), rank)
		if cmd.SysProcAttr == nil {
			cmd.SysProcAttr = &syscall.SysProcAttr{}
		}
		cmd.SysProcAttr.Setpgid = true
		cmd.SysProcAttr.Pgid = pgid
		forwardIterLines(cmd, rc.OnIteration)
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		if pgid == 0 {
			pgid = cmd.Process.Pid
			if rc.SetPGID != nil {
				rc.SetPGID(pgid)
			}
		}
		rc.Log("job %s: rank %d pid %d", rc.Manifest.ID, rank, cmd.Process.Pid)
		return &comm.RankProc{Rank: rank, Cmd: cmd}, nil
	}

	procs := make([]*comm.RankProc, ranks)
	for k := 0; k < ranks; k++ {
		proc, serr := spawn(k)
		if serr != nil {
			for _, q := range procs[:k] {
				_ = q.Cmd.Process.Kill()
				_ = q.Cmd.Wait()
			}
			return nil, fmt.Errorf("serve: start rank %d: %w", k, serr)
		}
		procs[k] = proc
	}

	// Drain/cancel delivery: context cancellation becomes a signal to the
	// worker group. A drain (errDrain cause) sends SIGTERM — workers stop
	// at the next iteration boundary with a final checkpoint and exit
	// cleanly. Any other cause (operator cancel, deadline) kills the group.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			sig := syscall.SIGKILL
			if errors.Is(context.Cause(ctx), errDrain) {
				sig = syscall.SIGTERM
			}
			_ = syscall.Kill(-pgid, sig)
		case <-watchDone:
		}
	}()

	grace := p.Grace
	if grace <= 0 {
		grace = 15 * time.Second
	}
	budget := p.RespawnBudget
	if budget <= 0 {
		budget = 2 * ranks
	}
	backoff := p.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	maxBackoff := p.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}

	respawns := 0
	respawn := func(rank int) (*comm.RankProc, error) {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("attempt ending: %w", context.Cause(ctx))
		}
		wait := backoff
		for i := 0; i < respawns && wait < maxBackoff; i++ {
			wait *= 2
		}
		if wait > maxBackoff {
			wait = maxBackoff
		}
		respawns++
		rc.Log("job %s: rank %d died, respawning in %v (%d/%d)",
			rc.Manifest.ID, rank, wait, respawns, budget)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, fmt.Errorf("attempt ending: %w", context.Cause(ctx))
		}
		return spawn(rank)
	}

	worldDesc := fmt.Sprintf("job %s, P=%d", rc.Manifest.ID, ranks)
	supErr := comm.SuperviseRanks(procs, grace, respawn, budget, worldDesc)
	if rc.SetPGID != nil {
		rc.SetPGID(0) // every worker has been reaped
	}
	if supErr != nil {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		return nil, supErr
	}
	co.Close()
	if serr := <-serveErr; serr != nil {
		return nil, fmt.Errorf("serve: coordinator: %w", serr)
	}
	res, rerr := ReadResult(rc.Dir)
	if rerr != nil {
		return nil, fmt.Errorf("serve: worker world exited cleanly but left no result: %w", rerr)
	}
	return res, nil
}

// forwardIterLines wires a worker's stdout into the iteration-event
// callback: each line holding an IterEvent JSON document is forwarded,
// anything else is ignored (rank >0 workers emit nothing).
func forwardIterLines(cmd *exec.Cmd, on func(IterEvent)) {
	if on == nil {
		return
	}
	cmd.Stdout = &lineSplitter{onLine: func(line []byte) {
		var ev IterEvent
		if err := json.Unmarshal(line, &ev); err == nil {
			on(ev)
		}
	}}
}

// lineSplitter buffers written bytes and invokes onLine per complete line.
// exec.Cmd copies the child's stdout into it from one goroutine and Waits
// for the copy to finish, so onLine never races the supervisor.
type lineSplitter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	onLine func([]byte)
}

func (l *lineSplitter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	for {
		b := l.buf.Bytes()
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := bytes.TrimSpace(b[:i])
		if len(line) > 0 {
			l.onLine(line)
		}
		l.buf.Next(i + 1)
	}
}
