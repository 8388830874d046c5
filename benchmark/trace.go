package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"picpar/internal/comm"
	"picpar/internal/machine"
)

// The span decorator: a comm.Transport wrapper owned by the benchmark that
// times what crosses the transport seam. On every rank it records
//
//   - one phase span per interval between successive SetPhase calls, and
//   - one leaf span per Recv, Send and Expose, inside the phase it ran in.
//
// Iteration and run spans come from the OnIteration stamps and the wall
// time around the whole call, so a run's spans form the tree
// run → iteration → phase → leaf. Everything stays in memory until the
// benchmark ends. A phase's self time is its span minus the leaves inside
// it: what the rank spent computing rather than inside the transport.

// phaseStartup labels a rank's timeline before the program's first SetPhase.
const phaseStartup machine.Phase = -1

type leafKind uint8

const (
	leafRecv leafKind = iota
	leafSend
	leafExpose
	numLeafKinds
)

var leafNames = [numLeafKinds]string{"Recv", "Send", "Expose"}

type phaseSpan struct {
	phase      machine.Phase
	start, end time.Duration // since the tracer's epoch
}

type leafSpan struct {
	kind       leafKind
	phase      int32 // index of the enclosing phase span
	peer, tag  int32
	bytes      int32
	start, end time.Duration
}

// rankTrace is one rank's timeline. It is written only by the goroutine
// that owns the rank's transport and read after the run has returned.
type rankTrace struct {
	rank   int
	phases []phaseSpan
	leaves []leafSpan
}

// loopStart returns when the rank entered its first scatter phase — the
// start of iteration 0; set-up runs under redistribute and commsetup — or
// fallback if it never did.
func (rt *rankTrace) loopStart(fallback time.Duration) time.Duration {
	for _, ph := range rt.phases {
		if ph.phase == machine.PhaseScatter {
			return ph.start
		}
	}
	return fallback
}

// tracer collects the spans of one run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex // guards ranks during wrap; ranks register concurrently
	ranks []*rankTrace
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// wrap is the decorator to hand to pic.Config.Transport or LaunchLoopback.
func (tr *tracer) wrap(t comm.Transport) comm.Transport {
	rt := &rankTrace{rank: t.Rank()}
	rt.phases = append(rt.phases, phaseSpan{phase: phaseStartup, start: time.Since(tr.epoch)})
	tr.mu.Lock()
	tr.ranks = append(tr.ranks, rt)
	tr.mu.Unlock()
	return &spanTransport{Transport: t, tr: tr, rt: rt}
}

// finish closes every rank's last phase span at the end of the run.
func (tr *tracer) finish(end time.Duration) {
	for _, rt := range tr.ranks {
		rt.phases[len(rt.phases)-1].end = end
	}
}

type spanTransport struct {
	comm.Transport
	tr *tracer
	rt *rankTrace
}

// Unwrap keeps capabilities of the layers below reachable (comm.Wrapper).
func (t *spanTransport) Unwrap() comm.Transport { return t.Transport }

func (t *spanTransport) SetPhase(p machine.Phase) {
	cur := &t.rt.phases[len(t.rt.phases)-1]
	if cur.phase != p {
		now := time.Since(t.tr.epoch)
		cur.end = now
		t.rt.phases = append(t.rt.phases, phaseSpan{phase: p, start: now})
	}
	t.Transport.SetPhase(p)
}

func (t *spanTransport) leaf(kind leafKind, peer int, tag comm.Tag, nbytes int, start time.Duration) {
	t.rt.leaves = append(t.rt.leaves, leafSpan{
		kind: kind, phase: int32(len(t.rt.phases) - 1),
		peer: int32(peer), tag: int32(tag), bytes: int32(nbytes),
		start: start, end: time.Since(t.tr.epoch),
	})
}

func (t *spanTransport) Send(dst int, tag comm.Tag, body any, nbytes int) {
	start := time.Since(t.tr.epoch)
	t.Transport.Send(dst, tag, body, nbytes)
	t.leaf(leafSend, dst, tag, nbytes, start)
}

func (t *spanTransport) Recv(src int, tag comm.Tag) (any, int) {
	start := time.Since(t.tr.epoch)
	body, nbytes := t.Transport.Recv(src, tag)
	t.leaf(leafRecv, src, tag, nbytes, start)
	return body, nbytes
}

func (t *spanTransport) Expose(v any) []any {
	start := time.Since(t.tr.epoch)
	all := t.Transport.Expose(v)
	t.leaf(leafExpose, -1, 0, 0, start)
	return all
}

// tracedRun is one run's spans with the boundaries observed around it.
type tracedRun struct {
	name   string
	tr     *tracer
	start  time.Duration   // the call began
	end    time.Duration   // the call returned
	stamps []time.Duration // iteration k ended (rank 0's OnIteration)
}

func newTracedRun(name string, tr *tracer, run simRun) *tracedRun {
	t := &tracedRun{name: name, tr: tr, start: run.start.Sub(tr.epoch)}
	t.end = t.start + run.wall
	for _, s := range run.stamps {
		t.stamps = append(t.stamps, s.Sub(tr.epoch))
	}
	tr.finish(t.end)
	return t
}

// breakdown is where the iteration loop's wall time went, per iteration,
// as a mean over ranks (ms).
type breakdown struct {
	self [machine.NumPhases]float64               // phase self time
	leaf [machine.NumPhases][numLeafKinds]float64 // time inside Recv, Send, Expose, by the phase it ran in
}

// overlap returns the part of [a, b] inside [lo, hi].
func overlap(a, b, lo, hi time.Duration) time.Duration {
	return max(min(b, hi)-max(a, lo), 0)
}

// breakdown attributes the iteration loop of the run. A rank's loop starts
// at its first scatter phase (set-up runs under redistribute/commsetup) and
// ends at the last iteration boundary; spans are clipped to that window.
func (t *tracedRun) breakdown() breakdown {
	var b breakdown
	if len(t.stamps) == 0 {
		return b
	}
	hi := t.stamps[len(t.stamps)-1]
	for _, rt := range t.tr.ranks {
		lo := rt.loopStart(hi)
		var self [machine.NumPhases]time.Duration
		var leaf [machine.NumPhases][numLeafKinds]time.Duration
		for _, ph := range rt.phases {
			if ph.phase >= 0 {
				self[ph.phase] += overlap(ph.start, ph.end, lo, hi)
			}
		}
		for _, lf := range rt.leaves {
			if ph := rt.phases[lf.phase].phase; ph >= 0 {
				d := overlap(lf.start, lf.end, lo, hi)
				leaf[ph][lf.kind] += d
				self[ph] -= d
			}
		}
		scale := 1e-6 / float64(len(t.stamps)) / float64(len(t.tr.ranks)) // ns → ms per iteration per rank
		for p := range self {
			b.self[p] += float64(self[p]) * scale
			for k := range leaf[p] {
				b.leaf[p][k] += float64(leaf[p][k]) * scale
			}
		}
	}
	return b
}

// writeTrace writes the runs as one Chrome-trace JSON file (load it in
// ui.perfetto.dev or chrome://tracing). Each run is a process; its "world"
// track holds the run and iteration spans, and each rank's track holds that
// rank's phase spans with the Recv/Send/Expose leaves nested inside. Every
// span carries args.id and args.parent, so the tree can be rebuilt without
// relying on time containment; README.md describes the fields.
func writeTrace(path string, host map[string]string, runs []*tracedRun) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	hostJSON, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","otherData":%s,"traceEvents":[`, hostJSON)
	id := 0
	sep := ""
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	event := func(pid, tid int, name, cat string, start, end time.Duration, parent int, extra string) int {
		id++
		fmt.Fprintf(w, `%s{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d%s}}`,
			sep, name, cat, us(start), us(end-start), pid, tid, id, parent, extra)
		sep = ",\n"
		return id
	}
	meta := func(pid, tid int, kind, name string) {
		fmt.Fprintf(w, `%s{"name":%q,"ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, sep, kind, pid, tid, name)
		sep = ",\n"
	}
	for i, run := range runs {
		pid := i + 1
		world := len(run.tr.ranks)
		meta(pid, 0, "process_name", run.name)
		meta(pid, world, "thread_name", "world")
		runID := event(pid, world, run.name, "run", run.start, run.end, 0, "")
		// Iteration k spans (stamp k−1, stamp k]; iteration 0 starts when
		// rank 0 enters its first scatter phase.
		iterIDs := make([]int, len(run.stamps))
		iterStart := make([]time.Duration, len(run.stamps))
		for k, end := range run.stamps {
			start := run.start
			if k > 0 {
				start = run.stamps[k-1]
			} else {
				for _, rt := range run.tr.ranks {
					if rt.rank == 0 {
						start = rt.loopStart(run.start)
					}
				}
			}
			iterStart[k] = start
			iterIDs[k] = event(pid, world, fmt.Sprintf("iteration %d", k), "iteration", start, end, runID, "")
		}
		for _, rt := range run.tr.ranks {
			meta(pid, rt.rank, "thread_name", fmt.Sprintf("rank %d", rt.rank))
			// A phase belongs to the iteration its start falls in (for
			// ranks other than 0 the boundary is rank 0's, so a phase
			// begun a few microseconds early lands one iteration back).
			phaseIDs := make([]int, len(rt.phases))
			k := 0
			for pi, ph := range rt.phases {
				for k < len(run.stamps) && ph.start >= run.stamps[k] {
					k++
				}
				parent := runID
				if k < len(run.stamps) && ph.start >= iterStart[k] {
					parent = iterIDs[k]
				}
				name := "startup"
				if ph.phase >= 0 {
					name = ph.phase.String()
				}
				phaseIDs[pi] = event(pid, rt.rank, name, "phase", ph.start, ph.end, parent, "")
			}
			for _, lf := range rt.leaves {
				extra := fmt.Sprintf(`,"peer":%d,"tag":%d,"bytes":%d`, lf.peer, lf.tag, lf.bytes)
				event(pid, rt.rank, leafNames[lf.kind], "comm", lf.start, lf.end, phaseIDs[lf.phase], extra)
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}
