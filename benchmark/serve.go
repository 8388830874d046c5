package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"picpar/internal/jobspec"
	"picpar/internal/serve"
)

// jobObs is one served job as its client saw it.
type jobObs struct {
	spec      jobspec.Spec
	posted    time.Time
	submitMs  float64 // POST → 202
	latencyMs float64 // POST → final manifest read
	done      time.Time
	manifest  serve.Manifest
	iterSeen  int // iteration frames received on the event stream
	rejected  bool
}

// serveRunner measures the served workload: an in-process picserve daemon
// behind a real HTTP listener, driven by closed-loop clients that submit a
// job, follow its event stream to the end, and read the final manifest
// before submitting the next.
type serveRunner struct {
	w    workload
	base string // scratch directory, removed by close
	n    int    // data directories made so far
	prev string // data directory the latest repetition left behind
	// timed holds every job of the unverified (timed) repetitions and
	// timedWall their summed wall time, for the service-path percentiles.
	timed     []jobObs
	timedWall float64
}

func newServeRunner(w workload, outDir string) (*serveRunner, error) {
	base, err := os.MkdirTemp(outDir, "serve-")
	if err != nil {
		return nil, fmt.Errorf("serve scratch directory: %w", err)
	}
	return &serveRunner{w: w, base: base}, nil
}

func (s *serveRunner) close() { _ = os.RemoveAll(s.base) } // scratch data; nothing to report

func (s *serveRunner) reference() (repResult, bool, error) { return repResult{}, false, nil }

func (s *serveRunner) newDir() (string, error) {
	s.n++
	dir := filepath.Join(s.base, fmt.Sprintf("data-%03d", s.n))
	return dir, os.MkdirAll(dir, 0o755)
}

// daemon is one daemon life: the server and its listener.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startDaemon(dir string) (*daemon, error) {
	quiet := func(string, ...any) {}
	srv, err := serve.New(dir, serve.LocalRunner{}, serve.Limits{MaxActive: 2}, quiet)
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (d *daemon) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Drain(ctx)
}

// setup times a daemon start on the data directory the previous repetition
// left behind (manifest scan and adoption) plus one zero-iteration job from
// submission to done.
func (s *serveRunner) setup() (float64, error) {
	dir := s.prev
	if dir == "" {
		var err error
		if dir, err = s.newDir(); err != nil {
			return 0, err
		}
		s.prev = dir
	}
	spec := s.w.spec
	spec.Iterations = 0
	t0 := time.Now()
	d, err := startDaemon(dir)
	if err != nil {
		return 0, err
	}
	job := runJob(d.ts, spec)
	wall := time.Since(t0).Seconds()
	if err := d.stop(); err != nil {
		return 0, err
	}
	return wall, jobProblem(job)
}

func (s *serveRunner) rep(verify bool) (repResult, error) {
	dir, err := s.newDir()
	if err != nil {
		return repResult{}, err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return repResult{}, err
	}
	per := s.w.jobsPerClient
	jobs := make([]jobObs, s.w.clients*per)
	var wg sync.WaitGroup
	for c := 0; c < s.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				idx := c*per + j
				spec := s.w.spec
				spec.Seed += int64(idx)
				spec.Verify = verify
				jobs[idx] = runJob(d.ts, spec)
			}
		}(c)
	}
	wg.Wait()
	if err := d.stop(); err != nil {
		return repResult{}, err
	}
	if s.prev != "" {
		_ = os.RemoveAll(s.prev) // scratch data of the repetition before
	}
	s.prev = dir
	res := serveResult(jobs)
	if !verify {
		s.timed = append(s.timed, jobs...)
		s.timedWall += res.wall
	}
	return res, nil
}

// serveResult reduces one repetition's jobs, in job-index order so that the
// floating-point sums repeat exactly.
func serveResult(jobs []jobObs) repResult {
	r := repResult{ops: len(jobs)}
	first, last := jobs[0].posted, jobs[0].done
	var prints []string
	steps := 0.0
	for i := range jobs {
		j := &jobs[i]
		if err := jobProblem(*j); err != nil {
			r.failed++
			r.notes = append(r.notes, fmt.Sprintf("job %d: %v", i, err))
			continue
		}
		if j.posted.Before(first) {
			first = j.posted
		}
		if j.done.After(last) {
			last = j.done
		}
		res := j.manifest.Result
		iters := j.spec.Iterations
		r.iters += iters
		r.simTotal += res.TotalTime
		r.simEff += res.Efficiency / float64(len(jobs))
		steps += float64(j.spec.Particles) * float64(iters)
		run := j.manifest.Finished.Sub(j.manifest.Started).Seconds() * 1e3
		r.intervals = append(r.intervals, run/float64(iters))
		prints = append(prints, fmt.Sprintf("%s/%d", res.Fingerprint, res.FinalParticleCount))
	}
	r.wall = last.Sub(first).Seconds()
	r.stepsPerS = steps / r.wall
	r.print = strings.Join(prints, ",")
	return r
}

// jobProblem says why a served job counts as failed, or nil.
func jobProblem(j jobObs) error {
	m := j.manifest
	switch {
	case j.rejected:
		return fmt.Errorf("submission refused: %s", m.Detail)
	case m.State != serve.StateDone:
		return fmt.Errorf("ended %q (%s %s)", m.State, m.Reason, m.Detail)
	case m.Result == nil:
		return fmt.Errorf("done without a result")
	case m.Result.FinalParticleCount != j.spec.Particles:
		return fmt.Errorf("%d particles at the end, want %d", m.Result.FinalParticleCount, j.spec.Particles)
	case m.Result.CompletedIterations != j.spec.Iterations:
		return fmt.Errorf("%d iterations completed, want %d", m.Result.CompletedIterations, j.spec.Iterations)
	}
	return nil
}

// runJob is one closed-loop client step: POST the spec, follow the event
// stream until the daemon closes it, then read the final manifest. Any
// transport-level error is folded into the manifest as a failed state so
// the caller counts it.
func runJob(ts *httptest.Server, spec jobspec.Spec) (j jobObs) {
	j.spec = spec
	fail := func(err error) jobObs {
		j.manifest.State = serve.StateFailed
		j.manifest.Detail = err.Error()
		j.done = time.Now()
		return j
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return fail(err)
	}
	cl := ts.Client()
	j.posted = time.Now()
	resp, err := cl.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.submitMs = time.Since(j.posted).Seconds() * 1e3
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		j.rejected = true
		return fail(fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(reply)))
	}
	var accepted serve.Manifest
	if err := json.Unmarshal(reply, &accepted); err != nil {
		return fail(err)
	}

	ev, err := cl.Get(ts.URL + "/jobs/" + accepted.ID + "/events")
	if err != nil {
		return fail(err)
	}
	j.iterSeen, err = followEvents(ev.Body)
	ev.Body.Close()
	if err != nil {
		return fail(err)
	}

	mr, err := cl.Get(ts.URL + "/jobs/" + accepted.ID)
	if err != nil {
		return fail(err)
	}
	err = json.NewDecoder(mr.Body).Decode(&j.manifest)
	mr.Body.Close()
	if err != nil {
		return fail(err)
	}
	j.done = time.Now()
	j.latencyMs = j.done.Sub(j.posted).Seconds() * 1e3
	return j
}

// followEvents reads a server-sent event stream to its end and counts the
// iteration frames on it. Frames the hub dropped, or published before the
// subscription, are simply not there.
func followEvents(body io.Reader) (iters int, err error) {
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if sc.Text() == "event: iter" {
			iters++
		}
	}
	return iters, sc.Err()
}
