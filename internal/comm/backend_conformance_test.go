// Backend conformance: one small SPMD program — every point-to-point and
// validation behaviour the rank core owns — runs on the goroutine World,
// on loopback TCP and on the hierarchical backend, and must leave
// identical machine.Stats ledgers and final clocks on all three. The cost
// model has one audit point (core.go); this is the test that a backend
// cannot drift from it.

package comm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"picpar/internal/machine"
)

// conformanceP is the smallest world whose collective skeleton (±2^k) is
// not already the full mesh, so a sparse descriptor has unlinked pairs:
// rank r owns no link to r+3 or r+5.
const conformanceP = 8

// recovered runs fn and returns the value it panicked with (nil: none).
func recovered(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// wantTransportError asserts v is a *TransportError wrapping target (nil
// target: any cause).
func wantTransportError(t *testing.T, what string, v any, target error) {
	t.Helper()
	err, _ := v.(error)
	var te *TransportError
	if !errors.As(err, &te) || (target != nil && !errors.Is(te, target)) {
		t.Errorf("%s: got %v, want *TransportError wrapping %v", what, v, target)
	}
}

// conformanceProgram is the shared rank program. sparse says the backend
// enforces the skeleton-only topology (the hierarchical backend has none);
// a refused operation charges nothing, so the ledgers still agree. Each
// rank leaves its endpoint in leaked and its final clock in clocks.
func conformanceProgram(t *testing.T, backend string, sparse bool, leaked []Transport, clocks []float64) func(Transport) {
	const tagA, tagB = TagUser + 1, TagUser + 2
	return func(r Transport) {
		id, p := r.Rank(), r.Size()
		next, prev := (id+1)%p, (id-1+p)%p
		leaked[id] = r

		// Ping-pong around the ring, with local work between the legs.
		r.SetPhase(machine.PhaseScatter)
		SendFloat64s(r, next, tagA, []float64{float64(id), 1, 2})
		if got := RecvFloat64s(r, prev, tagA); got[0] != float64(prev) {
			t.Errorf("%s rank %d: ping from %d carried %v", backend, id, prev, got)
		}
		r.Compute(100 * (id + 1))
		sendInts(r, prev, tagA, []int{id})
		if got := recvInts(r, next, tagA); got[0] != next {
			t.Errorf("%s rank %d: pong from %d carried %v", backend, id, next, got)
		}

		// Out-of-order tags: B is awaited first, so A is parked in pending
		// and must come back out of it, each tag in its own FIFO order.
		r.SetPhase(machine.PhaseGather)
		sendInts(r, next, tagA, []int{1})
		sendInts(r, next, tagB, []int{2, 2})
		sendInts(r, next, tagA, []int{3, 3, 3})
		if b, a1, a3 := recvInts(r, prev, tagB), recvInts(r, prev, tagA), recvInts(r, prev, tagA); len(b) != 2 || len(a1) != 1 || len(a3) != 3 {
			t.Errorf("%s rank %d: pending drained out of order: B=%v A=%v,%v", backend, id, b, a1, a3)
		}

		// Self-send and its receive are free; a self-recv nothing was sent
		// for is a programming error, not a hang.
		r.SetPhase(machine.PhasePush)
		before := r.Clock().Now()
		r.Send(id, tagA, "self", 1<<20)
		if body, n := r.Recv(id, tagA); body != "self" || n != 1<<20 {
			t.Errorf("%s rank %d: self-recv = %v, %d", backend, id, body, n)
		}
		if now := r.Clock().Now(); now != before {
			t.Errorf("%s rank %d: self-send charged %v", backend, id, now-before)
		}
		if v := recovered(func() { r.Recv(id, tagB) }); v == nil || !strings.Contains(fmt.Sprint(v), "self-recv") {
			t.Errorf("%s rank %d: unmatched self-recv panicked with %v", backend, id, v)
		}

		// Structural misuse is a typed error on every backend.
		wantTransportError(t, backend+" send to rank P", recovered(func() { r.Send(p, tagA, nil, 0) }), nil)
		wantTransportError(t, backend+" recv from rank -1", recovered(func() { r.Recv(-1, tagA) }), nil)
		if sparse {
			far := (id + 3) % p
			wantTransportError(t, backend+" send to unlinked rank", recovered(func() { r.Send(far, tagA, nil, 8) }), ErrOutOfTopology)
			wantTransportError(t, backend+" recv from unlinked rank", recovered(func() { r.Recv(far, tagA) }), ErrOutOfTopology)
		}

		// The collectives' skeleton and the uncharged Expose publication.
		r.SetPhase(machine.PhaseCommSetup)
		Barrier(r)
		if sum := AllreduceSumInt(r, id); sum != p*(p-1)/2 {
			t.Errorf("%s rank %d: allreduce = %d", backend, id, sum)
		}
		for round := 0; round < 2; round++ {
			for i, v := range r.Expose(id*10 + round) {
				if v != i*10+round {
					t.Errorf("%s rank %d: Expose round %d slot %d = %v", backend, id, round, i, v)
				}
			}
		}
		clocks[id] = r.Clock().Now()
	}
}

func TestBackendConformance(t *testing.T) {
	p := conformanceP
	skeleton := NewNeighborSparse(p, func(a, b int) bool { return false })
	if skeleton.Connected(0, 3) {
		t.Fatal("test premise: the P=8 skeleton must leave 0 and 3 unlinked")
	}
	watchdog := EnvWatchdog(10 * time.Second)

	type outcome struct {
		ws     machine.WorldStats
		clocks []float64
	}
	backends := []struct {
		name   string
		sparse bool
		launch func(fn func(Transport)) machine.WorldStats
	}{
		{"world", true, func(fn func(Transport)) machine.WorldStats {
			w := newTestWorld(p, machine.CM5())
			w.SetTopology(skeleton)
			defer w.Close()
			return w.Run(fn)
		}},
		{"tcp", true, func(fn func(Transport)) machine.WorldStats {
			tmpl := netTestTemplate()
			tmpl.Watchdog = watchdog
			tmpl.Topology = skeleton
			ws, errs := LaunchLoopback(tmpl, p, nil, fn)
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("tcp rank %d: %v", rank, err)
				}
			}
			return ws
		}},
		{"hier", false, func(fn func(Transport)) machine.WorldStats {
			ws, err := LaunchHierarchical(p, 2, machine.CM5(), watchdog, nil, fn)
			if err != nil {
				t.Fatalf("hier: %v", err)
			}
			return ws
		}},
	}

	var ref outcome
	for i, b := range backends {
		leaked := make([]Transport, p)
		got := outcome{clocks: make([]float64, p)}
		got.ws = b.launch(conformanceProgram(t, b.name, b.sparse, leaked, got.clocks))

		// Use after teardown: an endpoint leaked past its launch must fail
		// loudly, never post into a dead world.
		for _, r := range leaked[:2] {
			peer := (r.Rank() + 1) % p
			wantTransportError(t, b.name+" send after teardown", recovered(func() { r.Send(peer, TagUser, nil, 0) }), ErrClosedWorld)
			wantTransportError(t, b.name+" recv after teardown", recovered(func() { r.Recv(peer, TagUser) }), ErrClosedWorld)
		}

		if i == 0 {
			ref = got
			if ref.ws.Ranks[0].Total().MsgsSent == 0 || ref.clocks[0] == 0 {
				t.Fatalf("reference run charged nothing: %+v", ref.ws.Ranks[0].Total())
			}
			continue
		}
		for rank := 0; rank < p; rank++ {
			if got.ws.Ranks[rank] != ref.ws.Ranks[rank] {
				t.Errorf("%s rank %d ledger differs from %s:\n got %+v\nwant %+v",
					b.name, rank, backends[0].name, got.ws.Ranks[rank], ref.ws.Ranks[rank])
			}
			if got.clocks[rank] != ref.clocks[rank] {
				t.Errorf("%s rank %d final clock %v, %s has %v",
					b.name, rank, got.clocks[rank], backends[0].name, ref.clocks[rank])
			}
		}
	}
}
