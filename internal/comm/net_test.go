package comm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"picpar/internal/machine"
)

// netTestTemplate returns a NetConfig template with timeouts tightened so
// failure-path tests finish quickly while staying far above scheduler noise.
func netTestTemplate() NetConfig {
	return NetConfig{
		Params:            machine.CM5(),
		DialTimeout:       time.Second,
		DialBackoff:       10 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  3 * time.Second,
		DrainTimeout:      3 * time.Second,
		RendezvousTimeout: 20 * time.Second,
	}
}

// runNetSoak mirrors runSoak over real loopback sockets: every rank is a
// NetRank endpoint joined through a coordinator.
func runNetSoak(t *testing.T, p int, wrap func(Transport) Transport) []any {
	t.Helper()
	var digests []any
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	_, errs := LaunchLoopback(netTestTemplate(), p, wrap, func(tr Transport) {
		d := exerciseCollectives(tr)
		out := tr.Expose(d)
		if tr.Rank() == 0 {
			<-mu
			digests = out
			mu <- struct{}{}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed: %v", r, err)
		}
	}
	return digests
}

// TestNetCollectivesByteIdentical: the full collective surface over real
// TCP sockets, traced, produces outputs byte-identical to the bare
// goroutine backend — the cost model does not know which wire it runs on,
// and a Tracer observes the traffic without disturbing it.
func TestNetCollectivesByteIdentical(t *testing.T) {
	for _, p := range []int{2, 4} {
		baseline := runSoak(p)
		tracer := NewTracer()
		got := runNetSoak(t, p, tracer.Wrap)
		for r := range baseline {
			if got[r] != baseline[r] {
				t.Errorf("p=%d rank %d: traced TCP output diverged from goroutine backend\n got %v\nwant %v",
					p, r, got[r], baseline[r])
			}
		}
		if tracer.Total().MsgsSent == 0 {
			t.Errorf("p=%d: tracer observed no traffic over TCP", p)
		}
	}
}

// TestNetClocksMatchGoroutineBackend: final simulated clocks agree exactly
// between backends — every τ/μ charge lands identically.
func TestNetClocksMatchGoroutineBackend(t *testing.T) {
	const p = 4
	goClocks := func() []any {
		var out []any
		w := newTestWorld(p, machine.CM5())
		w.RunWrapped(nil, func(tr Transport) {
			exerciseCollectives(tr)
			ts := tr.Expose(tr.Clock().Now())
			if tr.Rank() == 0 {
				out = ts
			}
		})
		return out
	}()
	var netClocks []any
	done := make(chan []any, 1)
	_, errs := LaunchLoopback(netTestTemplate(), p, nil, func(tr Transport) {
		exerciseCollectives(tr)
		ts := tr.Expose(tr.Clock().Now())
		if tr.Rank() == 0 {
			done <- ts
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed: %v", r, err)
		}
	}
	netClocks = <-done
	for r := range goClocks {
		if goClocks[r] != netClocks[r] {
			t.Errorf("rank %d: clock diverged: goroutine %v, tcp %v", r, goClocks[r], netClocks[r])
		}
	}
}

// TestNetPeerDeathDeliveryError: a rank that crashes mid-run surfaces at
// every peer blocked on it as a *DeliveryError naming rank, peer, tag and
// phase — within the failure-detection window, never as a hang.
func TestNetPeerDeathDeliveryError(t *testing.T) {
	const p = 3
	start := time.Now()
	_, errs := LaunchLoopback(netTestTemplate(), p, nil, func(tr Transport) {
		if tr.Rank() == 2 {
			panic("simulated rank crash")
		}
		// Ranks 0 and 1 wait on traffic the dead rank will never send.
		tr.Recv(2, TagUser)
	})
	elapsed := time.Since(start)
	if elapsed > 15*time.Second {
		t.Errorf("peer death took %v to surface — detection is not bounded", elapsed)
	}
	var rp *RankPanic
	if errs[2] == nil || !errors.As(errs[2], &rp) || rp.Value != "simulated rank crash" {
		t.Fatalf("crashed rank error = %v, want its own RankPanic", errs[2])
	}
	for _, r := range []int{0, 1} {
		if errs[r] == nil {
			t.Fatalf("rank %d survived losing its peer — Recv must have failed", r)
		}
		if !errors.As(errs[r], &rp) {
			t.Fatalf("rank %d error %T (%v), want *RankPanic", r, errs[r], errs[r])
		}
		de := AsDeliveryError(rp.Value)
		if de == nil {
			t.Fatalf("rank %d panic value %T (%v), want *DeliveryError", r, rp.Value, rp.Value)
		}
		if de.Rank != r || de.Peer != 2 || de.Tag != TagUser {
			t.Errorf("rank %d DeliveryError misnames the failure: %+v", r, de)
		}
		if de.Reason == "" {
			t.Errorf("rank %d DeliveryError carries no reason", r)
		}
	}
}

// TestNetHeartbeatKeepsSilentPeerAlive: a rank busy in long local work
// sends no data, but its heartbeats must keep peers from declaring it dead
// — no false positives from silence alone.
func TestNetHeartbeatKeepsSilentPeerAlive(t *testing.T) {
	tmpl := netTestTemplate()
	tmpl.HeartbeatInterval = 50 * time.Millisecond
	tmpl.HeartbeatTimeout = 400 * time.Millisecond
	_, errs := LaunchLoopback(tmpl, 2, nil, func(tr Transport) {
		if tr.Rank() == 1 {
			time.Sleep(1200 * time.Millisecond) // 3× the heartbeat timeout
			sendInts(tr, 0, TagUser, []int{42})
			return
		}
		got := recvInts(tr, 1, TagUser)
		if got[0] != 42 {
			t.Errorf("got %v after peer's long silence, want [42]", got)
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d failed despite heartbeats: %v", r, err)
		}
	}
}

// TestNetWatchdogFires: the per-endpoint watchdog converts a protocol-level
// deadlock (waiting on a healthy peer that will never send) into a
// diagnostic panic naming the stuck receive.
func TestNetWatchdogFires(t *testing.T) {
	tmpl := netTestTemplate()
	tmpl.Watchdog = 150 * time.Millisecond
	_, errs := LaunchLoopback(tmpl, 2, nil, func(tr Transport) {
		if tr.Rank() == 1 {
			time.Sleep(time.Second) // alive (heartbeating) but never sending
			return
		}
		tr.Recv(1, TagUser)
	})
	var rp *RankPanic
	if errs[0] == nil || !errors.As(errs[0], &rp) {
		t.Fatalf("rank 0 error = %v, want *RankPanic from the watchdog", errs[0])
	}
	msg, ok := rp.Value.(string)
	if !ok || !strings.Contains(msg, "watchdog") || !strings.Contains(msg, "rank 0") {
		t.Errorf("watchdog diagnostic = %v, want a string naming the stuck rank", rp.Value)
	}
}

// TestNetClosedEndpointTypedError: using an endpoint after its NetRank
// returned fails with *TransportError wrapping ErrClosedWorld, same as a
// leaked goroutine rank.
func TestNetClosedEndpointTypedError(t *testing.T) {
	leaked := make(chan Transport, 1)
	_, errs := LaunchLoopback(netTestTemplate(), 2, nil, func(tr Transport) {
		if tr.Rank() == 0 {
			leaked <- tr
		}
		Barrier(tr)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed: %v", r, err)
		}
	}
	tr := <-leaked
	defer func() {
		e := recover()
		err, ok := e.(error)
		var te *TransportError
		if !ok || !errors.As(err, &te) || !errors.Is(te, ErrClosedWorld) {
			t.Fatalf("panic %T (%v), want *TransportError wrapping ErrClosedWorld", e, e)
		}
	}()
	tr.Send(1, TagUser, nil, 0)
}

// TestNetRendezvousRejectsSizeMismatch: a rank built for a different world
// size is turned away with the coordinator's reason, not wedged into a
// half-valid mesh.
func TestNetRendezvousRejectsSizeMismatch(t *testing.T) {
	co, err := StartCoordinator("127.0.0.1:0", 2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	go func() { _ = co.Serve() }() // never completes: only the misfit dials

	cfg := netTestTemplate()
	cfg.Coordinator = co.Addr()
	cfg.Rank, cfg.Size = 0, 3 // coordinator is assembling P=2
	_, rankErr := NetRank(cfg, nil, func(Transport) {})
	if rankErr == nil {
		t.Fatal("rank with mismatched world size was admitted")
	}
	if !strings.Contains(rankErr.Error(), "world size mismatch") {
		t.Errorf("rejection reason not surfaced to the rank: %v", rankErr)
	}
}

// TestNetRendezvousTopologyPin: the coordinator pins the first
// registration's topology digest. A rank presenting a different link set is
// refused with both digests named (the other rank then times out waiting
// for a world that cannot assemble); a rank presenting no topology carries
// the full mesh's digest and assembles with an explicit full-mesh rank.
func TestNetRendezvousTopologyPin(t *testing.T) {
	assemble := func(t *testing.T, topos ...*Topology) []error {
		co, err := StartCoordinator("127.0.0.1:0", 2, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		go func() { _ = co.Serve() }()
		errc := make(chan error, len(topos))
		for rank, tp := range topos {
			cfg := netTestTemplate()
			cfg.Coordinator = co.Addr()
			cfg.Rank, cfg.Size = rank, 2
			cfg.Topology = tp
			cfg.RendezvousTimeout = 2 * time.Second
			go func() {
				_, err := NetRank(cfg, nil, func(tr Transport) { Barrier(tr) })
				errc <- err
			}()
		}
		var errs []error
		for range topos {
			errs = append(errs, <-errc)
		}
		return errs
	}

	t.Run("mismatch", func(t *testing.T) {
		sparse := NewNeighborSparse(2, func(a, b int) bool { return false })
		full := NewFullMesh(2)
		// Whichever rank registers second is the one refused.
		var refused []string
		for _, err := range assemble(t, full, sparse) {
			if err != nil && strings.Contains(err.Error(), "topology mismatch") {
				refused = append(refused, err.Error())
			}
		}
		if len(refused) != 1 {
			t.Fatalf("%d topology mismatch rejections (%q), want exactly one", len(refused), refused)
		}
		msg := refused[0]
		for _, d := range []uint64{sparse.Digest(), full.Digest()} {
			if !strings.Contains(msg, fmt.Sprintf("%016x", d)) {
				t.Errorf("rejection %q does not name digest %016x", msg, d)
			}
		}
	})

	t.Run("unset is the full mesh", func(t *testing.T) {
		for _, err := range assemble(t, NewFullMesh(2), nil) {
			if err != nil {
				t.Error(err)
			}
		}
	})
}

// TestNetRendezvousRejectsDuplicateRank: two processes claiming the same
// rank cannot both join; exactly one is rejected with a duplicate-identity
// reason and the world still assembles for the winner.
func TestNetRendezvousRejectsDuplicateRank(t *testing.T) {
	co, err := StartCoordinator("127.0.0.1:0", 2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	go func() { _ = co.Serve() }()

	run := func(rank int) error {
		cfg := netTestTemplate()
		cfg.Coordinator = co.Addr()
		cfg.Rank, cfg.Size = rank, 2
		cfg.RendezvousTimeout = 5 * time.Second
		_, err := NetRank(cfg, nil, func(tr Transport) { Barrier(tr) })
		return err
	}
	errc := make(chan error, 3)
	go func() { errc <- run(0) }()
	go func() { errc <- run(0) }() // imposter claiming the same rank
	go func() { errc <- run(1) }()
	var failures []error
	for i := 0; i < 3; i++ {
		if e := <-errc; e != nil {
			failures = append(failures, e)
		}
	}
	if len(failures) != 1 {
		t.Fatalf("got %d failures (%v), want exactly the duplicate rejected", len(failures), failures)
	}
	// The loser is rejected either during assembly (duplicate identity) or
	// after it (late registration), depending on arrival order; both are
	// explicit rejections, never a silent timeout.
	msg := failures[0].Error()
	if !strings.Contains(msg, "duplicate identity") && !strings.Contains(msg, "already assembled") {
		t.Errorf("duplicate-rank rejection reason missing: %v", failures[0])
	}
}

// TestNetRankValidation: impossible configurations fail immediately with a
// plain error, before any socket is opened.
func TestNetRankValidation(t *testing.T) {
	if _, err := NetRank(NetConfig{Coordinator: "127.0.0.1:1", Rank: 5, Size: 2}, nil, func(Transport) {}); err == nil {
		t.Error("rank out of range was accepted")
	}
	if _, err := NetRank(NetConfig{Rank: 0, Size: 2}, nil, func(Transport) {}); err == nil {
		t.Error("missing coordinator address was accepted")
	}
}

// TestNetDialRetryExhausts: dialing a dead coordinator fails after the
// bounded retry budget with the attempt count in the error — not forever.
func TestNetDialRetryExhausts(t *testing.T) {
	cfg := netTestTemplate()
	cfg.Coordinator = "127.0.0.1:1" // nothing listens on port 1
	cfg.Rank, cfg.Size = 0, 2
	cfg.DialAttempts = 3
	cfg.DialBackoff = time.Millisecond
	start := time.Now()
	_, err := NetRank(cfg, nil, func(Transport) {})
	if err == nil {
		t.Fatal("dialing a dead coordinator succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error does not report the retry budget: %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("retry exhaustion took %v — backoff is not capped", time.Since(start))
	}
}

// TestNetExposeCarriesStats: a machine.Stats ledger published through
// Expose crosses the wire intact — the end-of-run gathering RunRank relies
// on.
func TestNetExposeCarriesStats(t *testing.T) {
	const p = 2
	_, errs := LaunchLoopback(netTestTemplate(), p, nil, func(tr Transport) {
		tr.SetPhase(machine.PhasePush)
		tr.Compute(100)
		vals := tr.Expose(tr.Stats().Snapshot())
		for r, v := range vals {
			st, ok := v.(machine.Stats)
			if !ok {
				t.Errorf("rank %d received %T, want machine.Stats", tr.Rank(), v)
				continue
			}
			if st.Phases[machine.PhasePush].ComputeTime <= 0 {
				t.Errorf("rank %d: ledger from rank %d lost its compute time", tr.Rank(), r)
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed: %v", r, err)
		}
	}
}
