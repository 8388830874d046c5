package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"picpar/internal/comm"
	"picpar/internal/jobspec"
	"picpar/internal/pic"
)

// goldenSpec is the repo-wide golden configuration (scripts/netsmoke.sh):
// small, irregular, deterministic.
func goldenSpec() jobspec.Spec {
	return jobspec.Spec{
		Mesh: "32x16", Particles: 2048, Ranks: 4, Iterations: 10,
		Distribution: "irregular", Seed: 7, Policy: "static",
		CheckpointEvery: 3, CheckpointKeep: 100,
	}
}

// goldenReference runs the golden spec undisturbed, in-process, without
// checkpointing, and returns the distilled result.
func goldenReference(t *testing.T) *JobResult {
	t.Helper()
	cfg, err := goldenSpec().Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pic.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ResultOf(res)
}

func quietLog(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf("picserve: "+format, args...) }
}

func newTestServer(t *testing.T, dir string, r Runner, lim Limits) *Server {
	t.Helper()
	s, err := New(dir, r, lim, quietLog(t))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitState polls a job until it reaches want (or any terminal state).
func waitState(t *testing.T, s *Server, id string, want State) Manifest {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := s.Manifest(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.State == want {
			return m
		}
		if m.State.Terminal() {
			t.Fatalf("job %s reached %s (reason %s: %s), want %s", id, m.State, m.Reason, m.Detail, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, m.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitRunsToDoneByteIdentical: the whole happy path — a golden job
// submitted over HTTP runs to done and its persisted result matches an
// undisturbed in-process run exactly.
func TestSubmitRunsToDoneByteIdentical(t *testing.T) {
	ref := goldenReference(t)
	dir := t.TempDir()
	s := newTestServer(t, dir, LocalRunner{}, Limits{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(goldenSpec())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.ID == "" || m.State != StateQueued {
		t.Fatalf("submitted manifest %+v", m)
	}

	fin := waitState(t, s, m.ID, StateDone)
	if fin.Result == nil {
		t.Fatal("done job has no result")
	}
	if fin.Result.TotalTime != ref.TotalTime || fin.Result.Fingerprint != ref.Fingerprint {
		t.Errorf("served run differs: total %.7f/%s, want %.7f/%s",
			fin.Result.TotalTime, fin.Result.Fingerprint, ref.TotalTime, ref.Fingerprint)
	}
	// The manifest on disk agrees with the one in memory.
	onDisk, err := ReadManifest(JobDir(dir, m.ID))
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateDone || onDisk.Result == nil ||
		onDisk.Result.Fingerprint != fin.Result.Fingerprint {
		t.Errorf("persisted manifest diverges: %+v", onDisk)
	}
}

// blockingRunner parks every attempt until released; it signals each
// attempt's start and honours cancellation.
type blockingRunner struct {
	started chan string   // receives job ids as attempts begin
	release chan struct{} // close to let attempts finish
	result  *JobResult
	err     error
}

func (r *blockingRunner) Run(ctx context.Context, rc RunContext) (*JobResult, error) {
	select {
	case r.started <- rc.Manifest.ID:
	default:
	}
	select {
	case <-r.release:
		if r.err != nil {
			return nil, r.err
		}
		res := *r.result
		return &res, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		buf.WriteString(sc.Text())
	}
	return resp, []byte(buf.String())
}

// TestAdmissionControl: the queue is bounded with a typed 429, per-job
// caps are typed 400s, and a draining daemon answers a typed 503 — the
// daemon never accepts work it cannot finish, and never hangs a client.
func TestAdmissionControl(t *testing.T) {
	run := &blockingRunner{
		started: make(chan string, 8),
		release: make(chan struct{}),
		result:  &JobResult{Fingerprint: "0"},
	}
	s := newTestServer(t, t.TempDir(), run, Limits{MaxActive: 1, MaxQueue: 1, MaxRanks: 4, MaxIterations: 50})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec := jobspec.Spec{Ranks: 2, Iterations: 5}

	// First job occupies the single active slot...
	resp, _ := postJSON(t, ts.URL+"/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", resp.StatusCode)
	}
	<-run.started
	// ...second fills the queue...
	if resp, _ := postJSON(t, ts.URL+"/jobs", spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d", resp.StatusCode)
	}
	// ...third is refused with the typed 429.
	resp, body := postJSON(t, ts.URL+"/jobs", spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	var re RejectError
	if json.Unmarshal(body, &re); re.Reason != ReasonQueueFull {
		t.Errorf("429 reason %q, want %q", re.Reason, ReasonQueueFull)
	}

	// Caps: rank and iteration overruns are typed 400s.
	resp, body = postJSON(t, ts.URL+"/jobs", jobspec.Spec{Ranks: 64})
	if json.Unmarshal(body, &re); resp.StatusCode != http.StatusBadRequest || re.Reason != ReasonOverRankCap {
		t.Errorf("over-rank: status %d reason %q", resp.StatusCode, re.Reason)
	}
	resp, body = postJSON(t, ts.URL+"/jobs", jobspec.Spec{Ranks: 2, Iterations: 999})
	if json.Unmarshal(body, &re); resp.StatusCode != http.StatusBadRequest || re.Reason != ReasonOverIterCap {
		t.Errorf("over-iter: status %d reason %q", resp.StatusCode, re.Reason)
	}
	// A malformed spec is a typed 400, not a 500.
	resp, body = postJSON(t, ts.URL+"/jobs", jobspec.Spec{Mesh: "banana"})
	if json.Unmarshal(body, &re); resp.StatusCode != http.StatusBadRequest || re.Reason != ReasonBadSpec {
		t.Errorf("bad spec: status %d reason %q", resp.StatusCode, re.Reason)
	}

	// Draining: admission closes with the typed 503, promptly.
	close(run.release)
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/jobs", spec)
	if json.Unmarshal(body, &re); resp.StatusCode != http.StatusServiceUnavailable || re.Reason != ReasonDraining {
		t.Errorf("draining: status %d reason %q, want 503 %q", resp.StatusCode, re.Reason, ReasonDraining)
	}
	// And /healthz reports it.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "draining" {
		t.Errorf("healthz status %v, want draining", hz["status"])
	}
}

// TestRetryBudgetThenTypedFailure: a job whose attempts keep dying retries
// with backoff up to the attempt budget, then fails with a typed reason —
// respawn-budget-exhausted when the attempts died of rank churn.
func TestRetryBudgetThenTypedFailure(t *testing.T) {
	var attempts int
	var mu sync.Mutex
	run := runnerFunc(func(ctx context.Context, rc RunContext) (*JobResult, error) {
		mu.Lock()
		attempts++
		mu.Unlock()
		return nil, &comm.LaunchError{
			Failures: []comm.RankFailure{{Rank: 2, Err: errors.New("kept dying")}},
			World:    "job " + rc.Manifest.ID + ", P=4",
		}
	})
	s := newTestServer(t, t.TempDir(), run, Limits{MaxAttempts: 3, RetryBackoff: time.Millisecond})
	m, err := s.Submit(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, m.ID)
	if fin.State != StateFailed || fin.Reason != ReasonRespawnBudget {
		t.Fatalf("state %s reason %q, want failed/%s", fin.State, fin.Reason, ReasonRespawnBudget)
	}
	if !strings.Contains(fin.Detail, "rank 2") {
		t.Errorf("failure detail does not name the dying rank: %q", fin.Detail)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 3 {
		t.Errorf("%d attempts, want the full budget of 3", attempts)
	}
}

type runnerFunc func(context.Context, RunContext) (*JobResult, error)

func (f runnerFunc) Run(ctx context.Context, rc RunContext) (*JobResult, error) { return f(ctx, rc) }

func waitTerminal(t *testing.T, s *Server, id string) Manifest {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := s.Manifest(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.State.Terminal() {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, m.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWallTimeDeadline: an attempt that outlives the wall cap is killed
// and the job fails with the typed wall-time reason.
func TestWallTimeDeadline(t *testing.T) {
	run := &blockingRunner{started: make(chan string, 1), release: make(chan struct{})}
	s := newTestServer(t, t.TempDir(), run, Limits{MaxWall: 50 * time.Millisecond})
	m, err := s.Submit(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, m.ID)
	if fin.State != StateFailed || fin.Reason != ReasonWallTime {
		t.Errorf("state %s reason %q, want failed/%s", fin.State, fin.Reason, ReasonWallTime)
	}
}

// TestCancelQueuedAndRunning: cancellation is honoured in both live
// states, with typed results, and a second cancel is a typed conflict.
func TestCancelQueuedAndRunning(t *testing.T) {
	run := &blockingRunner{started: make(chan string, 4), release: make(chan struct{})}
	s := newTestServer(t, t.TempDir(), run, Limits{MaxActive: 1})

	running, err := s.Submit(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-run.started
	queued, err := s.Submit(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if m := waitTerminal(t, s, queued.ID); m.State != StateCancelled {
		t.Errorf("queued job: %s, want cancelled", m.State)
	}
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if m := waitTerminal(t, s, running.ID); m.State != StateCancelled || m.Reason != ReasonCancelled {
		t.Errorf("running job: %s/%s, want cancelled", m.State, m.Reason)
	}
	err = s.Cancel(running.ID)
	var re *RejectError
	if !errors.As(err, &re) || re.Reason != ReasonConflict {
		t.Errorf("second cancel: %v, want typed conflict", err)
	}
	if err := s.Cancel("j-nope"); err == nil {
		t.Error("cancelling an unknown job succeeded")
	}
}

// slowingRunner wraps LocalRunner, stretching each iteration so a drain
// lands mid-run deterministically, and signalling the first iteration.
// When gate is non-nil, no iteration event is forwarded until it closes.
type slowingRunner struct {
	inner   Runner
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
	delay   time.Duration
}

func (r *slowingRunner) Run(ctx context.Context, rc RunContext) (*JobResult, error) {
	on := rc.OnIteration
	rc.OnIteration = func(ev IterEvent) {
		r.once.Do(func() { close(r.started) })
		if r.gate != nil {
			<-r.gate
		}
		time.Sleep(r.delay)
		if on != nil {
			on(ev)
		}
	}
	return r.inner.Run(ctx, rc)
}

// TestDrainThenRestartFinishesByteIdentical is the tentpole gate in-Go:
// SIGTERM-style drain checkpoints the running job and parks it; a fresh
// Server over the same data directory (the restarted daemon) re-adopts
// it, resumes from the drain epoch, and finishes with the exact
// fingerprint and TotalTime of a run that was never disturbed.
func TestDrainThenRestartFinishesByteIdentical(t *testing.T) {
	ref := goldenReference(t)
	dir := t.TempDir()

	run := &slowingRunner{inner: LocalRunner{}, started: make(chan struct{}), delay: 30 * time.Millisecond}
	s1 := newTestServer(t, dir, run, Limits{})
	m, err := s1.Submit(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-run.started // the job is mid-simulation
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer dcancel()
	if err := s1.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	parked, err := s1.Manifest(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if parked.State != StateCheckpointing {
		t.Fatalf("after drain: state %s, want checkpointing", parked.State)
	}

	// "Restart": a new Server over the same directory adopts and finishes.
	s2 := newTestServer(t, dir, LocalRunner{}, Limits{})
	fin := waitState(t, s2, m.ID, StateDone)
	if fin.Result == nil {
		t.Fatal("resumed job has no result")
	}
	if fin.Result.TotalTime != ref.TotalTime || fin.Result.Fingerprint != ref.Fingerprint {
		t.Errorf("drain+restart differs: total %.7f/%s, want %.7f/%s",
			fin.Result.TotalTime, fin.Result.Fingerprint, ref.TotalTime, ref.Fingerprint)
	}
	dctx2, dcancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel2()
	_ = s2.Drain(dctx2)
}

// TestAbruptDeathAdoptionResumesByteIdentical: the kill -9 shape, in-Go. A
// job directory left behind mid-run — manifest still saying "running",
// checkpoint epochs up to an arbitrary boundary — is adopted by a fresh
// daemon, resumed from the newest complete epoch, and finishes
// byte-identically. (The real kill -9 of the daemon process is
// scripts/servesmoke.sh.)
func TestAbruptDeathAdoptionResumesByteIdentical(t *testing.T) {
	ref := goldenReference(t)
	dir := t.TempDir()
	id := "j-dead0000"
	jd := JobDir(dir, id)

	// Fabricate the wreckage: run the golden job with a mid-run stop so
	// the ckpt directory holds a partial history, then write a manifest
	// frozen in "running" — exactly what a daemon killed with -9 leaves.
	cfg, err := goldenSpec().Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = CheckpointDir(jd)
	var stopped bool
	cfg.OnIteration = func(rec pic.IterationRecord) {
		if rec.Iter == 4 {
			stopped = true
		}
	}
	cfg.StopRequested = func() bool { return stopped }
	if err := os.MkdirAll(jd, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := pic.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(jd, &Manifest{
		ID: id, Spec: goldenSpec(), State: StateRunning,
		Submitted: time.Now().UTC(), Attempts: 1,
	}); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, dir, LocalRunner{}, Limits{})
	fin := waitState(t, s, id, StateDone)
	if fin.Result == nil {
		t.Fatal("adopted job has no result")
	}
	if fin.Result.TotalTime != ref.TotalTime || fin.Result.Fingerprint != ref.Fingerprint {
		t.Errorf("adopted run differs: total %.7f/%s, want %.7f/%s",
			fin.Result.TotalTime, fin.Result.Fingerprint, ref.TotalTime, ref.Fingerprint)
	}
	if fin.Attempts < 2 {
		t.Errorf("adoption did not preserve the attempt count: %d", fin.Attempts)
	}
}

// TestEventsStreamDiagnostics: the SSE endpoint streams one iter event per
// iteration with the redistribution diagnostics aboard, then a state
// event, then closes at the terminal state.
func TestEventsStreamDiagnostics(t *testing.T) {
	dir := t.TempDir()
	run := &slowingRunner{
		inner: LocalRunner{}, started: make(chan struct{}),
		gate: make(chan struct{}), delay: 2 * time.Millisecond,
	}
	s := newTestServer(t, dir, run, Limits{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := goldenSpec()
	spec.Policy = "periodic:3" // guarantees redistributions → strategy fields populated
	m, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + m.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var iters []IterEvent
	var states []string
	sc := bufio.NewScanner(resp.Body)
	event := ""
	gateOpen := false
	for sc.Scan() {
		if !gateOpen {
			// The handler subscribes before its first frame, so once any
			// line arrives the subscription is live; release the iteration
			// events that were held back.
			close(run.gate)
			gateOpen = true
		}
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "iter":
				var ev IterEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad iter frame %q: %v", data, err)
				}
				iters = append(iters, ev)
			case "state":
				var st map[string]string
				_ = json.Unmarshal([]byte(data), &st)
				states = append(states, st["state"])
			}
		}
	}
	// The stream closed because the job reached a terminal state.
	if len(iters) != 10 {
		t.Errorf("streamed %d iter events, want 10", len(iters))
	}
	sawRedist := false
	for i, ev := range iters {
		if ev.Iter != i {
			t.Errorf("iter event %d carries Iter %d", i, ev.Iter)
		}
		if ev.Redistributed {
			sawRedist = true
			if ev.RedistStrategy == "" {
				t.Errorf("iter %d redistributed without a strategy", ev.Iter)
			}
		}
	}
	if !sawRedist {
		t.Error("periodic:3 run streamed no redistribution events")
	}
	if len(states) == 0 || states[len(states)-1] != string(StateDone) {
		t.Errorf("state events %v, want to end in done", states)
	}
	fin := waitTerminal(t, s, m.ID)
	if fin.State != StateDone {
		t.Fatalf("job ended %s", fin.State)
	}
}

// TestHubDropsForSlowConsumers: a subscriber that stops reading loses
// frames instead of stalling the publisher, and learns how many via a gap
// event once it reads again.
func TestHubDropsForSlowConsumers(t *testing.T) {
	h := newHub()
	ch, cancel := h.subscribe()
	defer cancel()
	// Publish far past the buffer without consuming.
	for i := 0; i < subCap+50; i++ {
		h.publish("iter", IterEvent{Iter: i})
	}
	// The publisher never blocked (we are here). Drain: buffered frames
	// first, then the gap notice on the next publish.
	got := 0
	for len(ch) > 0 {
		<-ch
		got++
	}
	if got > subCap {
		t.Fatalf("buffered %d frames, cap is %d", got, subCap)
	}
	h.publish("iter", IterEvent{Iter: -1})
	f := <-ch
	if f.Event != "gap" {
		t.Fatalf("first frame after catch-up is %q, want gap", f.Event)
	}
	var gap map[string]int
	if err := json.Unmarshal(f.Data, &gap); err != nil || gap["dropped"] != 50 {
		t.Errorf("gap frame %s, want dropped=50", f.Data)
	}
	if f = <-ch; f.Event != "iter" {
		t.Errorf("frame after gap is %q, want the live iter", f.Event)
	}
}

// TestJobzAndHealthz: the observability endpoints answer.
func TestJobzAndHealthz(t *testing.T) {
	s := newTestServer(t, t.TempDir(), LocalRunner{}, Limits{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	m, err := s.Submit(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, m.ID, StateDone)
	for _, path := range []string{"/jobz", "/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var ms []Manifest
		err = json.NewDecoder(resp.Body).Decode(&ms)
		resp.Body.Close()
		if err != nil || len(ms) != 1 || ms[0].ID != m.ID {
			t.Errorf("%s: %v (%d manifests)", path, err, len(ms))
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil || hz["status"] != "ok" {
		t.Errorf("healthz: %v %v", hz, err)
	}
}

// TestManifestAtomicRoundTrip: manifests and results survive the disk
// round trip unchanged, and a stale result is cleared before reuse.
func TestManifestAtomicRoundTrip(t *testing.T) {
	jd := JobDir(t.TempDir(), "j-x")
	m := &Manifest{ID: "j-x", Spec: goldenSpec(), State: StateRunning,
		Submitted: time.Now().UTC().Truncate(time.Second), Attempts: 2, PGID: 4242}
	if err := WriteManifest(jd, m); err == nil {
		t.Fatal("manifest written into a nonexistent job dir")
	}
	if err := os.MkdirAll(jd, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(jd, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(jd)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.State != m.State || got.PGID != 4242 || got.Attempts != 2 {
		t.Errorf("round trip: %+v", got)
	}
	r := &JobResult{TotalTime: 1.25, Fingerprint: "00ff"}
	if err := WriteResult(jd, r); err != nil {
		t.Fatal(err)
	}
	rr, err := ReadResult(jd)
	if err != nil || rr.Fingerprint != "00ff" {
		t.Fatalf("result round trip: %+v %v", rr, err)
	}
	RemoveResult(jd)
	if _, err := ReadResult(jd); err == nil {
		t.Error("stale result survived RemoveResult")
	}
}

// TestManifestWritesSerialisedAndPersistFirst pins the two halves of the
// per-job write discipline with a stalled persist hook.
//
// Persist-before-publish: while the done manifest is being written, memory
// must not yet report done (a client that sees done may read the file).
//
// Serialisation: a pgid write stalled in the filesystem must not be
// overtaken by the terminal transition — otherwise its stale running+pgid
// image lands on top of done, and a restarted daemon would re-run the job.
// The stalled write waits (bounded) for the racing transition to finish, so
// an unserialised server deterministically ends with running on disk; a
// serialised one simply blocks the transition until the stall times out.
func TestManifestWritesSerialisedAndPersistFirst(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, LocalRunner{}, Limits{})
	jd := JobDir(dir, "j-race")
	if err := os.MkdirAll(jd, 0o755); err != nil {
		t.Fatal(err)
	}
	j := &job{m: Manifest{ID: "j-race", State: StateRunning}, dir: jd, hub: newHub()}

	doneFinished := make(chan struct{})
	var early State
	s.persist = func(jobDir string, m *Manifest) error {
		switch {
		case m.State == StateDone:
			early = j.snapshot().State
		case m.PGID != 0:
			// The stalled first write: start the terminal transition and
			// give it every chance to overtake.
			go func() {
				defer close(doneFinished)
				s.setState(j, StateDone, func(m *Manifest) { m.PGID = 0 })
			}()
			select {
			case <-doneFinished:
			case <-time.After(200 * time.Millisecond):
			}
		}
		return WriteManifest(jobDir, m)
	}
	s.setStatePGID(j, 4242)
	<-doneFinished

	if early == StateDone {
		t.Error("memory reported done before the done manifest was persisted")
	}
	onDisk, err := ReadManifest(jd)
	if err != nil {
		t.Fatal(err)
	}
	if mem := j.snapshot(); mem.State != StateDone || onDisk.State != StateDone || onDisk.PGID != 0 {
		t.Errorf("after a pgid write raced done: memory %s, disk %s pgid %d; want done/done/0",
			mem.State, onDisk.State, onDisk.PGID)
	}
}
