// The daemon core: admission control, the job scheduler, crash adoption
// and the HTTP API.
//
//	POST /jobs               submit a jobspec.Spec JSON document → {"id": ...}
//	GET  /jobs               list job manifests (also GET /jobz)
//	GET  /jobs/{id}          one job's manifest
//	POST /jobs/{id}/cancel   cancel a queued or running job
//	GET  /jobs/{id}/events   SSE stream: state transitions + iteration diagnostics
//	GET  /healthz            daemon liveness + occupancy
//
// Admission is bounded on every axis: a full queue is a typed 429, a
// draining daemon is a typed 503, and a job exceeding the per-job rank or
// iteration caps is a typed 400 — the daemon never accepts work it cannot
// finish. Each accepted job runs under a wall-clock deadline and a
// job-level attempt budget wrapped around the runner's own rank-respawn
// budget; when every layer of budget is spent the job fails with a typed
// reason, it never wedges the pool.

package serve

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"picpar/internal/comm"
	"picpar/internal/jobspec"
)

// Limits bounds what the daemon will accept and how hard it will try.
// Zero fields take the stated defaults.
type Limits struct {
	MaxQueue      int           // queued (not yet running) jobs; default 16
	MaxActive     int           // concurrently running jobs; default 2
	MaxRanks      int           // per-job rank cap; default 16
	MaxIterations int           // per-job iteration cap; default 100000
	MaxWall       time.Duration // per-job wall-clock deadline; default 15m
	MaxAttempts   int           // run attempts per job before failing; default 3
	RetryBackoff  time.Duration // wait before re-attempting a failed job, doubling per attempt; default 1s
}

func (l Limits) withDefaults() Limits {
	if l.MaxQueue <= 0 {
		l.MaxQueue = 16
	}
	if l.MaxActive <= 0 {
		l.MaxActive = 2
	}
	if l.MaxRanks <= 0 {
		l.MaxRanks = 16
	}
	if l.MaxIterations <= 0 {
		l.MaxIterations = 100000
	}
	if l.MaxWall <= 0 {
		l.MaxWall = 15 * time.Minute
	}
	if l.MaxAttempts <= 0 {
		l.MaxAttempts = 3
	}
	if l.RetryBackoff <= 0 {
		l.RetryBackoff = time.Second
	}
	return l
}

// errDrain is the cancellation cause of a graceful shutdown; runners turn
// it into a checkpoint-and-stop rather than a kill.
var errDrain = errors.New("serve: daemon draining")

// job is the in-memory side of one managed job.
type job struct {
	// wmu serialises manifest transitions. A writer holds it from reading the
	// current manifest, through the disk write, to publishing the result in
	// m — so manifests reach disk in the order they were decided (a stale
	// running+pgid image can never land on top of done, which a restarted
	// daemon would re-run) and memory never reports a state disk lacks.
	wmu sync.Mutex
	// mu guards m and cancel. Readers take only mu and never wait on a write.
	mu     sync.Mutex
	m      Manifest
	dir    string
	hub    *hub
	cancel context.CancelCauseFunc // non-nil while an attempt runs
}

// Server is the simulation-job daemon: a bounded scheduler over a Runner,
// with every job state persisted in the data directory.
type Server struct {
	dir    string
	runner Runner
	limits Limits
	logf   func(format string, args ...any)
	// persist is WriteManifest; tests stall it to race transitions.
	persist func(jobDir string, m *Manifest) error

	mu       sync.Mutex
	jobs     map[string]*job
	queue    []string // FIFO of queued job ids
	active   int
	draining bool

	root     context.Context
	shutdown context.CancelCauseFunc
	wg       sync.WaitGroup
}

// New opens (creating if needed) the data directory, adopts any jobs a
// previous daemon left in flight — killing their orphaned worker process
// groups first — and returns a serving-ready Server. Adopted live jobs are
// re-queued and resume from their latest complete checkpoint epoch.
func New(dir string, runner Runner, limits Limits, logf func(string, ...any)) (*Server, error) {
	if logf == nil {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "picserve: "+format+"\n", args...)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	root, shutdown := context.WithCancelCause(context.Background())
	s := &Server{
		dir:      dir,
		runner:   runner,
		limits:   limits.withDefaults(),
		logf:     logf,
		persist:  WriteManifest,
		jobs:     map[string]*job{},
		root:     root,
		shutdown: shutdown,
	}
	if err := s.adopt(); err != nil {
		return nil, err
	}
	s.dispatch()
	return s, nil
}

// adopt scans the data directory for manifests from a previous daemon
// life. Terminal jobs are kept for listing; live jobs (queued, assembling,
// running, checkpointing) have their orphaned worker groups killed and are
// re-queued — the checkpoint directory decides where they resume.
func (s *Server) adopt() error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var adopted []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		jd := JobDir(s.dir, e.Name())
		m, merr := ReadManifest(jd)
		if merr != nil {
			s.logf("adopt: skipping %s: %v", e.Name(), merr)
			continue
		}
		j := &job{m: *m, dir: jd, hub: newHub()}
		if m.State.Terminal() {
			j.hub.close()
			s.jobs[m.ID] = j
			continue
		}
		if m.PGID > 0 {
			// kill -9 of the daemon leaves the worker group running (or
			// parked at a rendezvous that no longer exists). Kill it before
			// relaunching, so two worlds never write one checkpoint dir.
			_ = syscall.Kill(-m.PGID, syscall.SIGKILL)
			s.logf("adopt: job %s: killed orphaned process group %d", m.ID, m.PGID)
			j.m.PGID = 0
		}
		j.m.State = StateQueued
		if err := WriteManifest(jd, &j.m); err != nil {
			return err
		}
		s.jobs[m.ID] = j
		s.queue = append(s.queue, m.ID)
		adopted = append(adopted, m.ID)
	}
	sort.Strings(s.queue) // deterministic adoption order
	for _, id := range adopted {
		s.logf("adopt: job %s re-queued", id)
	}
	return nil
}

// newID returns a fresh collision-checked job id.
func (s *Server) newID() (string, error) {
	for i := 0; i < 32; i++ {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "", fmt.Errorf("serve: %w", err)
		}
		id := fmt.Sprintf("j-%08x", b)
		if _, taken := s.jobs[id]; !taken {
			if _, err := os.Stat(JobDir(s.dir, id)); os.IsNotExist(err) {
				return id, nil
			}
		}
	}
	return "", errors.New("serve: could not allocate a job id")
}

// Submit runs admission control and, if the job is accepted, persists and
// queues it. The error (if any) is a typed *RejectError.
func (s *Server) Submit(spec jobspec.Spec) (*Manifest, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, reject(http.StatusBadRequest, ReasonBadSpec, "%v", err)
	}
	ranks := cfg.P
	if ranks == 0 {
		ranks = 4 // pic's own default world size
	}
	iters := cfg.Iterations

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.draining:
		return nil, reject(http.StatusServiceUnavailable, ReasonDraining,
			"daemon is draining; not admitting jobs")
	case ranks > s.limits.MaxRanks:
		return nil, reject(http.StatusBadRequest, ReasonOverRankCap,
			"job wants %d ranks, cap is %d", ranks, s.limits.MaxRanks)
	case iters > s.limits.MaxIterations:
		return nil, reject(http.StatusBadRequest, ReasonOverIterCap,
			"job wants %d iterations, cap is %d", iters, s.limits.MaxIterations)
	case len(s.queue) >= s.limits.MaxQueue:
		return nil, reject(http.StatusTooManyRequests, ReasonQueueFull,
			"queue is full (%d jobs); retry later", len(s.queue))
	}

	id, err := s.newID()
	if err != nil {
		return nil, err
	}
	jd := JobDir(s.dir, id)
	if err := os.MkdirAll(jd, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	j := &job{
		m: Manifest{
			ID:        id,
			Spec:      spec,
			State:     StateQueued,
			Submitted: time.Now().UTC(),
		},
		dir: jd,
		hub: newHub(),
	}
	if err := WriteManifest(jd, &j.m); err != nil {
		return nil, err
	}
	s.jobs[id] = j
	s.queue = append(s.queue, id)
	m := j.m
	s.dispatchLocked()
	return &m, nil
}

// dispatch starts queued jobs while pool slots are free.
func (s *Server) dispatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatchLocked()
}

func (s *Server) dispatchLocked() {
	for !s.draining && s.active < s.limits.MaxActive && len(s.queue) > 0 {
		id := s.queue[0]
		s.queue = s.queue[1:]
		j := s.jobs[id]
		if j == nil {
			continue
		}
		s.active++
		s.wg.Add(1)
		go s.runJob(j)
	}
}

// setState moves a job to a new state, persists the manifest, and only
// then publishes the transition — in memory and on the job's event stream.
// mutate (optional) edits the new manifest before the write. A job already
// in a terminal state never leaves it (a cancel racing the scheduler must
// not be resurrected); the refused transition returns false.
func (s *Server) setState(j *job, st State, mutate func(*Manifest)) bool {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	m := j.snapshot()
	if m.State.Terminal() {
		return false
	}
	m.State = st
	if mutate != nil {
		mutate(&m)
	}
	s.commit(j, m, string(st))
	j.hub.publish("state", map[string]string{"state": string(st), "reason": m.Reason})
	if st.Terminal() {
		j.hub.close()
	}
	return true
}

// setStatePGID records the attempt's worker process group.
func (s *Server) setStatePGID(j *job, pgid int) {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	m := j.snapshot()
	m.PGID = pgid
	s.commit(j, m, "pgid")
}

// commit persists m and then installs it as the job's in-memory manifest.
// The caller holds j.wmu. A sick disk is logged and the job carries on.
func (s *Server) commit(j *job, m Manifest, what string) {
	if err := s.persist(j.dir, &m); err != nil {
		s.logf("job %s: persist %s: %v", m.ID, what, err)
	}
	j.mu.Lock()
	j.m = m
	j.mu.Unlock()
}

// runJob drives one job through attempts until a terminal state or a
// drain. It owns one pool slot.
func (s *Server) runJob(j *job) {
	defer func() {
		s.mu.Lock()
		s.active--
		s.dispatchLocked()
		s.mu.Unlock()
		s.wg.Done()
	}()

	ctx, cancel := context.WithCancelCause(s.root)
	defer cancel(nil)
	deadline := time.AfterFunc(s.limits.MaxWall, func() {
		cancel(reject(http.StatusGatewayTimeout, ReasonWallTime,
			"job exceeded the %v wall-time cap", s.limits.MaxWall))
	})
	defer deadline.Stop()
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()

	for {
		if !s.setState(j, StateAssembling, func(m *Manifest) {
			m.Attempts++
			if m.Started.IsZero() {
				m.Started = time.Now().UTC()
			}
		}) {
			return // cancelled before the attempt started
		}
		rc := RunContext{
			Manifest:    j.snapshot(),
			Dir:         j.dir,
			OnIteration: func(ev IterEvent) { j.hub.publish("iter", ev) },
			SetPGID: func(pgid int) {
				s.setStatePGID(j, pgid)
			},
			Log: s.logf,
		}
		s.setState(j, StateRunning, nil)
		res, err := s.runner.Run(ctx, rc)

		cause := context.Cause(ctx)
		switch {
		case err == nil && !res.Stopped:
			// A full result always wins, even if the deadline raced the
			// final iteration.
			s.setState(j, StateDone, func(m *Manifest) {
				m.Result = res
				m.Finished = time.Now().UTC()
				m.PGID = 0
			})
			s.logf("job %s: done, TotalTime %.7f Fingerprint %s",
				rc.Manifest.ID, res.TotalTime, res.Fingerprint)
			return
		case cause != nil && errors.Is(cause, errDrain):
			// Graceful drain (whether the attempt stopped cleanly with a
			// final epoch or died mid-drain): checkpoints up to the last
			// complete epoch survive; park the job for the next daemon life.
			s.setState(j, StateCheckpointing, func(m *Manifest) { m.PGID = 0 })
			return
		case err == nil && cause == nil:
			// Stopped without a cause the daemon set (e.g. an external
			// SIGTERM reached the worker group): resumable, park it.
			s.setState(j, StateCheckpointing, func(m *Manifest) { m.PGID = 0 })
			return
		case cause != nil:
			// Deadline or operator cancellation: typed terminal state.
			reason, detail := ReasonCancelled, "cancelled"
			var re *RejectError
			if errors.As(cause, &re) {
				reason, detail = re.Reason, re.Msg
			}
			st := StateFailed
			if reason == ReasonCancelled {
				st = StateCancelled
			}
			s.setState(j, st, func(m *Manifest) {
				m.Reason = reason
				m.Detail = detail
				m.Finished = time.Now().UTC()
				m.PGID = 0
			})
			return
		}

		// The attempt failed on its own (rank respawn budget exhausted,
		// sick spec surfacing at run time, ...). Spend the job-level
		// attempt budget with capped-exponential backoff before failing
		// for good.
		attempt := j.snapshot().Attempts
		if attempt >= s.limits.MaxAttempts {
			reason := ReasonRunFailed
			var le *comm.LaunchError
			if errors.As(err, &le) {
				reason = ReasonRespawnBudget
			}
			s.setState(j, StateFailed, func(m *Manifest) {
				m.Reason = reason
				m.Detail = fmt.Sprintf("attempt %d/%d: %v", attempt, s.limits.MaxAttempts, err)
				m.Finished = time.Now().UTC()
				m.PGID = 0
			})
			s.logf("job %s: failed (%s) after %d attempts: %v", rc.Manifest.ID, reason, attempt, err)
			return
		}
		wait := s.limits.RetryBackoff
		for i := 1; i < attempt && wait < 30*time.Second; i++ {
			wait *= 2
		}
		s.logf("job %s: attempt %d/%d failed (%v); retrying in %v",
			rc.Manifest.ID, attempt, s.limits.MaxAttempts, err, wait)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			// Loop once more; the cause switch above turns it terminal.
		}
	}
}

func (j *job) snapshot() Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m
}

// Cancel cancels a queued or running job. Typed *RejectError on conflict.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return reject(http.StatusNotFound, ReasonNotFound, "no job %s", id)
	}
	// Remove from the queue if still waiting.
	for i, qid := range s.queue {
		if qid == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.mu.Unlock()

	j.mu.Lock()
	st := j.m.State
	cancel := j.cancel
	j.mu.Unlock()
	switch {
	case st.Terminal():
		return reject(http.StatusConflict, ReasonConflict, "job %s is already %s", id, st)
	case st == StateQueued, st == StateCheckpointing:
		s.setState(j, StateCancelled, func(m *Manifest) {
			m.Reason = ReasonCancelled
			m.Detail = "cancelled before running"
			m.Finished = time.Now().UTC()
		})
		return nil
	default:
		cancel(reject(http.StatusOK, ReasonCancelled, "cancelled by operator"))
		return nil
	}
}

// Drain gracefully shuts the daemon down: admission closes (503), running
// jobs are asked to stop at their next iteration boundary with a final
// checkpoint, and Drain returns when every pool slot has settled (or ctx
// expires). Queued jobs stay queued on disk for the next daemon life.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.shutdown(errDrain)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out: %w", ctx.Err())
	}
}

// Manifests returns a snapshot of every known job, newest submission
// first.
func (s *Server) Manifests() []Manifest {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	ms := make([]Manifest, 0, len(jobs))
	for _, j := range jobs {
		ms = append(ms, j.snapshot())
	}
	sort.Slice(ms, func(i, k int) bool {
		if !ms[i].Submitted.Equal(ms[k].Submitted) {
			return ms[i].Submitted.After(ms[k].Submitted)
		}
		return ms[i].ID < ms[k].ID
	})
	return ms
}

// Manifest returns one job's snapshot.
func (s *Server) Manifest(id string) (Manifest, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return Manifest{}, reject(http.StatusNotFound, ReasonNotFound, "no job %s", id)
	}
	return j.snapshot(), nil
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobz", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobspec.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, reject(http.StatusBadRequest, ReasonBadSpec, "bad spec document: %v", err))
		return
	}
	m, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(m)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Manifests())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	m, err := s.Manifest(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(m)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, reject(http.StatusNotFound, ReasonNotFound, "no job %s", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, reject(http.StatusNotImplemented, "no-flush", "streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Subscribe before the initial frame: once a client has read any frame,
	// it is guaranteed to see every event published after it.
	ch, cancelSub := j.hub.subscribe()
	defer cancelSub()
	// First frame: the job's current state, so a late subscriber is not
	// blind until the next transition.
	m := j.snapshot()
	fmt.Fprintf(w, "event: state\ndata: {\"state\":%q}\n\n", m.State)
	fl.Flush()
	for {
		select {
		case f, open := <-ch:
			if !open {
				return // terminal state: stream complete
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.Event, f.Data)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	body := map[string]any{
		"status": status,
		"active": s.active,
		"queued": len(s.queue),
		"jobs":   len(s.jobs),
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}
