// Process supervision for multi-process worlds: the launcher side of the
// TCP backend. SuperviseRanks babysits one OS process per rank and turns
// "a rank died" into a prompt, typed-looking diagnostic at the launcher —
// the process-level mirror of the in-world DeliveryError story. When any
// rank fails, its peers fail fast on their own (EOF or heartbeat timeout),
// so the supervisor only grants a short grace for those diagnostics to
// print before killing stragglers.

package comm

import (
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// RankProc is one spawned rank process under supervision. The caller builds
// the Cmd (binary, args, stdio plumbing); SuperviseRanks starts and reaps it.
type RankProc struct {
	Rank int
	Cmd  *exec.Cmd
}

// RankFailure records how one supervised rank exited.
type RankFailure struct {
	Rank   int
	Err    error
	Killed bool // terminated by the supervisor, not a failure of its own
}

// LaunchError aggregates every abnormal rank exit from one supervised run.
type LaunchError struct {
	Failures []RankFailure
	// World describes the world being launched (e.g. "topology
	// neighbor-sparse, P=4"), so a refused dial in a sparse world is
	// attributed to its configuration at the launcher, not just to a rank.
	// Empty for launches that did not describe themselves.
	World string
}

// Error implements error, naming every failed rank (and the world
// configuration, when the launcher described one).
func (e *LaunchError) Error() string {
	parts := make([]string, 0, len(e.Failures))
	for _, f := range e.Failures {
		if f.Killed {
			parts = append(parts, fmt.Sprintf("rank %d: killed by supervisor after peer failure", f.Rank))
			continue
		}
		parts = append(parts, fmt.Sprintf("rank %d: %v", f.Rank, f.Err))
	}
	head := "comm: launch failed: "
	if e.World != "" {
		head = fmt.Sprintf("comm: launch failed (%s): ", e.World)
	}
	return head + strings.Join(parts, "; ")
}

// RespawnFunc builds a replacement process for a dead rank during an
// elastic run. It must return a RankProc for the same rank identity whose
// Cmd is ready to Start (or already started, e.g. to log the new pid).
type RespawnFunc func(rank int) (*RankProc, error)

// SuperviseRanks starts every rank process and waits for the world to
// finish; all ranks exiting cleanly returns nil. A rank that exits
// abnormally while respawn budget remains (maxRespawns relaunches over the
// whole run) is relaunched via respawn — the survivors meanwhile park at
// the rendezvous (NetRank with RejoinAttempts set) and the world
// re-assembles, rolled back to the latest complete checkpoint epoch.
// Otherwise (nil respawn, spent budget) the supervisor waits up to grace
// for the remaining ranks to fail on their own (printing their
// DeliveryError diagnostics), kills any stragglers, and returns a
// *LaunchError naming every failed rank — the Start-failure path included:
// siblings killed because a later rank never started are drained and
// recorded too, so multi-rank death is always fully attributed. An
// optional trailing world description (e.g. "topology neighbor-sparse,
// P=4") is carried on that error.
func SuperviseRanks(procs []*RankProc, grace time.Duration, respawn RespawnFunc, maxRespawns int, world ...string) error {
	worldDesc := strings.Join(world, ", ")
	if grace <= 0 {
		grace = 10 * time.Second
	}
	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, len(procs)+maxRespawns)
	reap := func(p *RankProc) { exits <- exit{p.Rank, p.Cmd.Wait()} }

	running := make(map[int]*RankProc, len(procs))
	var failures []RankFailure
	for _, p := range procs {
		if p.Cmd.Process == nil {
			if err := p.Cmd.Start(); err != nil {
				// Kill and drain the already-started siblings, recording
				// every exit status so the LaunchError attributes them all.
				// No reaper goroutines exist yet (they start below, after
				// every rank is up), so Wait here is the only Wait.
				failures = append(failures, RankFailure{Rank: p.Rank, Err: fmt.Errorf("start: %w", err)})
				for r, q := range running {
					_ = q.Cmd.Process.Kill()
					werr := q.Cmd.Wait()
					failures = append(failures, RankFailure{Rank: r, Err: werr, Killed: true})
				}
				sort.Slice(failures, func(i, j int) bool { return failures[i].Rank < failures[j].Rank })
				return &LaunchError{Failures: failures, World: worldDesc}
			}
		}
		running[p.Rank] = p
	}
	live := len(running)
	for _, p := range running {
		go reap(p)
	}

	killed := make(map[int]bool)
	respawned := 0
	failing := false
	cleanExits := 0
	var graceC <-chan time.Time
	for live > 0 {
		select {
		case e := <-exits:
			live--
			delete(running, e.rank)
			if e.err == nil {
				cleanExits++
				continue
			}
			// Respawn only while the whole world is still in flight: once a
			// rank has exited cleanly the run is ending, and a replacement
			// could never re-assemble with the departed rank.
			if respawn != nil && respawned < maxRespawns && !failing && cleanExits == 0 && !killed[e.rank] {
				np, rerr := respawn(e.rank)
				if rerr == nil && np.Cmd.Process == nil {
					rerr = np.Cmd.Start()
				}
				if rerr == nil {
					respawned++
					running[e.rank] = np
					live++
					go reap(np)
					continue
				}
				e.err = fmt.Errorf("%v (respawn failed: %v)", e.err, rerr)
			}
			failing = true
			failures = append(failures, RankFailure{Rank: e.rank, Err: e.err, Killed: killed[e.rank]})
			if graceC == nil {
				t := time.NewTimer(grace)
				defer t.Stop()
				graceC = t.C
			}
		case <-graceC:
			graceC = nil
			for rank, p := range running {
				killed[rank] = true
				_ = p.Cmd.Process.Kill()
			}
		}
	}
	if len(failures) == 0 {
		return nil
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i].Rank < failures[j].Rank })
	return &LaunchError{Failures: failures, World: worldDesc}
}
