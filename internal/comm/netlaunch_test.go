package comm

import (
	"errors"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// elasticTestTemplate is netTestTemplate with a rejoin budget (which makes
// LaunchLoopback serve elastic rounds) and the rejoin backoff tightened for
// fast recovery-path tests.
func elasticTestTemplate() NetConfig {
	tmpl := netTestTemplate()
	tmpl.RejoinAttempts = 8
	tmpl.RejoinBackoff = 10 * time.Millisecond
	tmpl.RejoinMaxBackoff = 100 * time.Millisecond
	return tmpl
}

// TestSuperviseRanksStartFailureAggregates: when a later rank fails to
// start, the already-running siblings are killed, drained, and every one
// of them appears in the LaunchError — multi-rank death is fully
// attributed even on the launch path.
func TestSuperviseRanksStartFailureAggregates(t *testing.T) {
	procs := []*RankProc{
		{Rank: 0, Cmd: exec.Command("sleep", "30")},
		{Rank: 1, Cmd: exec.Command("sleep", "30")},
		{Rank: 2, Cmd: exec.Command("/nonexistent/picpar-no-such-binary")},
	}
	err := SuperviseRanks(procs, time.Second, nil, 0)
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("error is %T (%v), want *LaunchError", err, err)
	}
	if len(le.Failures) != 3 {
		t.Fatalf("%d failures recorded, want 3 (start failure + 2 killed siblings): %v", len(le.Failures), le)
	}
	for i, f := range le.Failures {
		if f.Rank != i {
			t.Errorf("failure %d names rank %d — not sorted by rank", i, f.Rank)
		}
		wantKilled := i != 2
		if f.Killed != wantKilled {
			t.Errorf("rank %d: Killed=%v, want %v", f.Rank, f.Killed, wantKilled)
		}
		if f.Err == nil {
			t.Errorf("rank %d: failure with nil error", f.Rank)
		}
	}
}

// TestSuperviseRanksRespawns: an abnormal exit while the world is
// in flight is respawned (not failed), and the run ends cleanly once every
// process — replacement included — exits 0.
func TestSuperviseRanksRespawns(t *testing.T) {
	var respawns atomic.Int64
	procs := []*RankProc{
		{Rank: 0, Cmd: exec.Command("sleep", "0.5")},
		{Rank: 1, Cmd: exec.Command("sh", "-c", "exit 3")},
	}
	respawn := func(rank int) (*RankProc, error) {
		respawns.Add(1)
		return &RankProc{Rank: rank, Cmd: exec.Command("true")}, nil
	}
	if err := SuperviseRanks(procs, time.Second, respawn, 4); err != nil {
		t.Fatalf("elastic supervision failed: %v", err)
	}
	if got := respawns.Load(); got != 1 {
		t.Errorf("%d respawns, want 1", got)
	}
}

// TestSuperviseRanksBudgetExhausted: with no respawn budget the
// supervisor degrades to the grace-then-kill aggregation.
func TestSuperviseRanksBudgetExhausted(t *testing.T) {
	procs := []*RankProc{
		{Rank: 0, Cmd: exec.Command("sleep", "30")},
		{Rank: 1, Cmd: exec.Command("sh", "-c", "exit 3")},
	}
	respawn := func(rank int) (*RankProc, error) {
		return &RankProc{Rank: rank, Cmd: exec.Command("true")}, nil
	}
	err := SuperviseRanks(procs, 200*time.Millisecond, respawn, 0)
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("error is %T (%v), want *LaunchError", err, err)
	}
	var sawDead, sawKilled bool
	for _, f := range le.Failures {
		switch {
		case f.Rank == 1 && !f.Killed:
			sawDead = true
		case f.Rank == 0 && f.Killed:
			sawKilled = true
		}
	}
	if !sawDead || !sawKilled {
		t.Errorf("failures %v: want rank 1 dead and rank 0 killed by supervisor", le.Failures)
	}
}

// TestSuperviseRanksBudgetConsumedThenFails: a rank that keeps
// dying consumes the whole respawn budget (every respawn really runs),
// and the exit after the last budgeted respawn escalates to a typed
// *LaunchError that names the failing rank, the surviving killed sibling,
// and the world description the caller attached — and the supervisor
// leaves no goroutines behind.
func TestSuperviseRanksBudgetConsumedThenFails(t *testing.T) {
	before := runtime.NumGoroutine()

	const budget = 2
	var respawns atomic.Int64
	procs := []*RankProc{
		{Rank: 0, Cmd: exec.Command("sleep", "30")},
		{Rank: 1, Cmd: exec.Command("sh", "-c", "exit 3")},
	}
	respawn := func(rank int) (*RankProc, error) {
		respawns.Add(1)
		return &RankProc{Rank: rank, Cmd: exec.Command("sh", "-c", "exit 3")}, nil
	}
	err := SuperviseRanks(procs, 200*time.Millisecond, respawn, budget,
		"job j-test, P=2")
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("error is %T (%v), want *LaunchError", err, err)
	}
	if got := respawns.Load(); got != budget {
		t.Errorf("%d respawns, want the full budget of %d", got, budget)
	}
	if le.World != "job j-test, P=2" {
		t.Errorf("LaunchError.World = %q, want the job description", le.World)
	}
	if !strings.Contains(le.Error(), "job j-test") || !strings.Contains(le.Error(), "rank 1") {
		t.Errorf("error does not name the job and rank: %v", le)
	}
	var sawDead, sawKilled bool
	for _, f := range le.Failures {
		switch {
		case f.Rank == 1 && !f.Killed && f.Err != nil:
			sawDead = true
		case f.Rank == 0 && f.Killed:
			sawKilled = true
		}
	}
	if !sawDead || !sawKilled {
		t.Errorf("failures %v: want rank 1 dead after exhausted budget and rank 0 killed", le.Failures)
	}

	// Reaper goroutines must all have drained; allow the runtime a moment
	// to retire them before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			break
		} else if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d before supervision, %d after", before, after)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNetRankRejoins: with a rejoin budget, a rank whose world dies under
// it (a peer panicked a *DeliveryError and tore down abruptly) parks,
// re-registers through the elastic rendezvous and completes on the rebuilt
// world — and the failure cascades, so its peer rejoins too.
func TestNetRankRejoins(t *testing.T) {
	var attempts atomic.Int64
	var fired atomic.Bool
	fn := func(tr Transport) {
		attempts.Add(1)
		if tr.Rank() == 1 && fired.CompareAndSwap(false, true) {
			panic(&DeliveryError{Rank: 1, Peer: 0, Tag: TagUser, Reason: "chaos: injected rank death"})
		}
		peer := 1 - tr.Rank()
		tr.Send(peer, TagUser, float64(tr.Rank()), 8)
		body, _ := tr.Recv(peer, TagUser)
		if got := body.(float64); got != float64(peer) {
			panic("exchange corrupted")
		}
	}
	_, errs := LaunchLoopback(elasticTestTemplate(), 2, nil, fn)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed: %v", rank, err)
		}
	}
	if !fired.Load() {
		t.Fatal("injection never fired")
	}
	if got := attempts.Load(); got != 4 {
		t.Errorf("%d rank attempts, want 4 (both ranks run twice)", got)
	}
}

// TestNetRankRejoinDoesNotMaskRealFailures: a rank panic that is not a
// delivery failure must propagate immediately, not burn rejoin attempts.
func TestNetRankRejoinDoesNotMaskRealFailures(t *testing.T) {
	var attempts atomic.Int64
	fn := func(tr Transport) {
		attempts.Add(1)
		if tr.Rank() == 1 {
			panic("a real bug")
		}
		tr.Recv(1, TagUser) // fails when rank 1 tears down → rank 0 rejoins
	}
	// Rank 0 will rejoin and wait for a world that can never re-assemble
	// (rank 1 is gone for good); a short rendezvous window bounds the test.
	tmpl := elasticTestTemplate()
	tmpl.RendezvousTimeout = time.Second
	_, errs := LaunchLoopback(tmpl, 2, nil, fn)
	var rp *RankPanic
	if !errors.As(errs[1], &rp) || rp.Value != "a real bug" {
		t.Fatalf("rank 1 error %v, want its own RankPanic", errs[1])
	}
}

// TestNetRankZeroRejoinAttemptsFailsOnce: RejoinAttempts 0 is the plain,
// non-elastic rank even when the coordinator would re-assemble the world —
// a rank whose peer panics fails with a *DeliveryError naming that peer
// after running fn exactly once.
func TestNetRankZeroRejoinAttemptsFailsOnce(t *testing.T) {
	co, err := StartCoordinator("127.0.0.1:0", 2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	go func() { _ = co.ServeElastic() }()

	var attempts atomic.Int64
	fn := func(tr Transport) {
		attempts.Add(1)
		if tr.Rank() == 1 {
			panic(&DeliveryError{Rank: 1, Peer: 0, Tag: TagUser, Reason: "chaos: injected rank death"})
		}
		tr.Recv(1, TagUser)
	}
	errs := make([]error, 2)
	done := make(chan struct{}, 2)
	for rank := range errs {
		go func(rank int) {
			cfg := netTestTemplate()
			cfg.Coordinator = co.Addr()
			cfg.Rank, cfg.Size = rank, 2
			_, errs[rank] = NetRank(cfg, nil, fn)
			done <- struct{}{}
		}(rank)
	}
	<-done
	<-done
	var rp *RankPanic
	if !errors.As(errs[0], &rp) {
		t.Fatalf("rank 0 error %v, want *RankPanic", errs[0])
	}
	if de := AsDeliveryError(rp.Value); de == nil || de.Rank != 0 || de.Peer != 1 {
		t.Fatalf("rank 0 panic %v, want a *DeliveryError naming peer 1", rp.Value)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("%d rank attempts, want 2 (each rank runs fn once)", got)
	}
}
