package comm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"picpar/internal/machine"
)

// TestCloseRacesInFlightTraffic: World.Close fired concurrently with ranks
// mid-Send/Recv must resolve every rank into one of exactly two outcomes —
// clean completion (the operation won the race) or a typed
// *TransportError wrapping ErrClosedWorld (teardown won) — never a hang,
// never an untyped crash. Run under -race this also proves the teardown
// flag is data-race-free against the hot path.
func TestCloseRacesInFlightTraffic(t *testing.T) {
	for round := 0; round < 6; round++ {
		w := NewWorld(4, machine.Zero())
		// Ranks whose peers lost the race block until the watchdog frees
		// them, so its duration bounds each round's wall time; a real hang
		// would still fail loudly rather than time out the binary.
		w.SetWatchdog(500 * time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(round) * 50 * time.Microsecond)
			w.Close()
		}()
		func() {
			defer func() {
				e := recover()
				if e == nil {
					return // every rank finished before Close landed
				}
				rp, ok := e.(*RankPanic)
				if !ok {
					t.Fatalf("round %d: panic %T (%v), want *RankPanic", round, e, e)
				}
				err, ok := rp.Value.(error)
				var te *TransportError
				if !ok || !errors.As(err, &te) || !errors.Is(te, ErrClosedWorld) {
					t.Fatalf("round %d: rank %d failed with %v, want *TransportError wrapping ErrClosedWorld",
						round, rp.Rank, rp.Value)
				}
			}()
			w.Run(func(r Transport) {
				next := (r.Rank() + 1) % r.Size()
				prev := (r.Rank() - 1 + r.Size()) % r.Size()
				for i := 0; i < 200; i++ {
					sendInts(r, next, TagUser, []int{i})
					recvInts(r, prev, TagUser)
				}
			})
		}()
		wg.Wait()
	}
}

// TestNetShutdownRacesInFlightTraffic is the TCP-backend half of the close
// race: one rank tears down (returns early) while its peers still have
// traffic in flight. Peers must resolve into a typed *DeliveryError (the
// peer departed) — never a hang and never a corrupted frame.
func TestNetShutdownRacesInFlightTraffic(t *testing.T) {
	tmpl := netTestTemplate()
	_, errs := LaunchLoopback(tmpl, 3, nil, func(tr Transport) {
		if tr.Rank() == 2 {
			// Participates briefly, then leaves the world early and cleanly
			// while ranks 0 and 1 still expect it in the ring.
			sendInts(tr, 0, TagUser, []int{99})
			return
		}
		next := (tr.Rank() + 1) % 3
		prev := (tr.Rank() + 2) % 3
		for i := 0; i < 100; i++ {
			sendInts(tr, next, TagUser, []int{i})
			recvInts(tr, prev, TagUser)
		}
	})
	if errs[2] != nil {
		t.Fatalf("early-leaving rank failed its own teardown: %v", errs[2])
	}
	// Rank 1 receives from rank 0 only, so it may fail on either peer
	// depending on scheduling; rank 0 must eventually starve on rank 2.
	sawDelivery := false
	for r := 0; r < 2; r++ {
		if errs[r] == nil {
			continue
		}
		var rp *RankPanic
		if !errors.As(errs[r], &rp) {
			t.Fatalf("rank %d error %T (%v), want *RankPanic", r, errs[r], errs[r])
		}
		if de := AsDeliveryError(rp.Value); de != nil {
			sawDelivery = true
			if de.Reason == "" {
				t.Errorf("rank %d DeliveryError carries no reason: %+v", r, de)
			}
		} else {
			t.Errorf("rank %d failed with %v, want a *DeliveryError", r, rp.Value)
		}
	}
	if !sawDelivery {
		t.Error("no surviving rank diagnosed the departed peer")
	}
}

// TestClosedWorldTypedError: a rank outliving its Launch world fails with a
// *TransportError wrapping ErrClosedWorld — typed, so a recover site (elastic
// rejoin among them) can tell a teardown bug from a dead peer.
func TestClosedWorldTypedError(t *testing.T) {
	var leaked Transport
	Launch(2, machine.Zero(), func(tr Transport) {
		if tr.Rank() == 0 {
			leaked = tr
		}
		Barrier(tr)
	})
	defer func() {
		e := recover()
		var te *TransportError
		err, ok := e.(error)
		if !ok || !errors.As(err, &te) {
			t.Fatalf("panic %T (%v), want *TransportError", e, e)
		}
		if !errors.Is(te, ErrClosedWorld) {
			t.Errorf("error %v does not wrap ErrClosedWorld", te)
		}
	}()
	leaked.Send(1, TagUser, nil, 0)
}
