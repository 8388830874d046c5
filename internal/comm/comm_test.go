package comm

import (
	"fmt"
	"math"
	"testing"

	"picpar/internal/machine"
)

// testPs is the set of world sizes exercised by most tests: 1, 2, a
// power of two, and two awkward non-powers.
var testPs = []int{1, 2, 3, 4, 5, 7, 8, 16}

// sendInts and recvInts move an []int the way the collectives do: as a
// boxed *[]int.
func sendInts(t Transport, dst int, tag Tag, data []int) {
	t.Send(dst, tag, &data, len(data)*IntBytes)
}

func recvInts(t Transport, src int, tag Tag) []int {
	body, _ := t.Recv(src, tag)
	return *body.(*[]int)
}

func TestSendRecvPingPong(t *testing.T) {
	w := newTestWorld(2, machine.Zero())
	w.Run(func(r Transport) {
		if r.Rank() == 0 {
			SendFloat64s(r, 1, TagUser, []float64{1, 2, 3})
			got := RecvFloat64s(r, 1, TagUser)
			if len(got) != 1 || got[0] != 42 {
				t.Errorf("rank 0 got %v, want [42]", got)
			}
		} else {
			got := RecvFloat64s(r, 0, TagUser)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("rank 1 got %v", got)
			}
			SendFloat64s(r, 0, TagUser, []float64{42})
		}
	})
}

func TestSendRecvTagMatching(t *testing.T) {
	// Messages with a different tag must be set aside and delivered to a
	// later matching Recv in FIFO order.
	w := newTestWorld(2, machine.Zero())
	w.Run(func(r Transport) {
		const tagA, tagB = TagUser, TagUser + 1
		if r.Rank() == 0 {
			sendInts(r, 1, tagA, []int{1})
			sendInts(r, 1, tagB, []int{2})
			sendInts(r, 1, tagA, []int{3})
		} else {
			if got := recvInts(r, 0, tagB); got[0] != 2 {
				t.Errorf("tagB got %v, want [2]", got)
			}
			if got := recvInts(r, 0, tagA); got[0] != 1 {
				t.Errorf("first tagA got %v, want [1]", got)
			}
			if got := recvInts(r, 0, tagA); got[0] != 3 {
				t.Errorf("second tagA got %v, want [3]", got)
			}
		}
	})
}

func TestSendChargesCostModel(t *testing.T) {
	params := machine.Params{Tau: 10, MuPerByte: 1, Delta: 2}
	w := newTestWorld(2, params)
	ws := w.Run(func(r Transport) {
		if r.Rank() == 0 {
			r.Send(1, TagUser, nil, 16) // cost 10 + 16 = 26
			r.Compute(3)                // cost 6
		} else {
			r.Recv(0, TagUser)
		}
	})
	r0 := ws.Ranks[0].Total()
	if r0.CommTime != 26 {
		t.Errorf("sender comm time = %v, want 26", r0.CommTime)
	}
	if r0.ComputeTime != 6 {
		t.Errorf("sender compute time = %v, want 6", r0.ComputeTime)
	}
	if r0.BytesSent != 16 || r0.MsgsSent != 1 {
		t.Errorf("sender counters: %+v", r0)
	}
	r1 := ws.Ranks[1].Total()
	if r1.BytesRecv != 16 || r1.MsgsRecv != 1 || r1.CommTime != 26 {
		t.Errorf("receiver counters: %+v", r1)
	}
}

// TestComputeRepeatIsRepeatedCompute: ComputeRepeat(n, times) leaves the
// clock and every phase's ledger bit for bit where times calls of
// Compute(n) leave them, on the simulated clock and the wall clock, for no
// repeats and for non-positive n too. The clocks start off zero and the
// phases change between calls, so a multiplication instead of repeated
// addition, or a charge to the wrong phase, shows.
func TestComputeRepeatIsRepeatedCompute(t *testing.T) {
	params := machine.CM5()
	for _, clock := range []func() machine.Clock{
		func() machine.Clock { return machine.NewSimClock() },
		func() machine.Clock { return machine.NewWallClock() },
	} {
		repeat := &core{params: params, clock: clock()}
		single := &core{params: params, clock: clock()}
		for _, c := range []*core{repeat, single} {
			c.ComputeTime(0.1)
		}
		for k, call := range [][2]int{{1, 1}, {3, 7}, {5, 0}, {0, 4}, {-2, 3}, {6, 1000}, {2, 3}, {8, 1}} {
			phase := machine.Phase(k % machine.NumPhases)
			repeat.SetPhase(phase)
			single.SetPhase(phase)
			repeat.ComputeRepeat(call[0], call[1])
			for i := 0; i < call[1]; i++ {
				single.Compute(call[0])
			}
			if _, sim := repeat.clock.(*machine.SimClock); sim && repeat.clock.Now() != single.clock.Now() {
				t.Errorf("ComputeRepeat%v: clock %v, %d Compute calls %v", call, repeat.clock.Now(), call[1], single.clock.Now())
			}
			if repeat.stats != single.stats {
				t.Errorf("ComputeRepeat%v: ledger %+v, %d Compute calls %+v", call, repeat.stats, call[1], single.stats)
			}
		}
	}
}

func TestRecvIsCausal(t *testing.T) {
	// Receiver's clock must end at least at sender's post-send clock plus
	// the receive cost, even if the receiver did no work of its own.
	params := machine.Params{Tau: 5, MuPerByte: 0, Delta: 1}
	w := newTestWorld(2, params)
	clocks := make([]float64, 2)
	w.Run(func(r Transport) {
		if r.Rank() == 0 {
			r.Compute(100) // clock 100
			r.Send(1, TagUser, nil, 0)
		} else {
			r.Recv(0, TagUser)
		}
		clocks[r.Rank()] = r.Clock().Now()
	})
	// Sender: 100 + 5 = 105. Receiver: max(0, 105) + 5 = 110.
	if clocks[0] != 105 {
		t.Errorf("sender clock = %v, want 105", clocks[0])
	}
	if clocks[1] != 110 {
		t.Errorf("receiver clock = %v, want 110", clocks[1])
	}
}

func TestSelfSendRecv(t *testing.T) {
	w := newTestWorld(1, machine.CM5())
	ws := w.Run(func(r Transport) {
		sendInts(r, 0, TagUser, []int{7})
		got := recvInts(r, 0, TagUser)
		if got[0] != 7 {
			t.Errorf("self send/recv got %v", got)
		}
	})
	tot := ws.Ranks[0].Total()
	if tot.MsgsSent != 0 || tot.MsgsRecv != 0 {
		t.Errorf("self messages must not hit the network: %+v", tot)
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	params := machine.Params{Tau: 1, MuPerByte: 0, Delta: 1}
	for _, p := range testPs {
		w := newTestWorld(p, params)
		clocks := make([]float64, p)
		w.Run(func(r Transport) {
			// Rank i does i*10 units of work, then everyone barriers.
			r.Compute(r.Rank() * 10)
			Barrier(r)
			clocks[r.Rank()] = r.Clock().Now()
		})
		slowest := float64((p - 1) * 10)
		for i, c := range clocks {
			if c < slowest {
				t.Errorf("p=%d rank %d clock %v < slowest work %v; barrier not causal", p, i, c, slowest)
			}
		}
	}
}

func TestBcast(t *testing.T) {
	for _, p := range testPs {
		for root := 0; root < p; root += max(1, p/3) {
			w := newTestWorld(p, machine.Zero())
			w.Run(func(r Transport) {
				var body []float64
				if r.Rank() == root {
					body = []float64{3.14, float64(root)}
				}
				got := Bcast(r, root, body, 16).([]float64)
				if len(got) != 2 || got[0] != 3.14 || got[1] != float64(root) {
					t.Errorf("p=%d root=%d rank=%d got %v", p, root, r.Rank(), got)
				}
			})
		}
	}
}

func TestReduceFloat64Sum(t *testing.T) {
	for _, p := range testPs {
		for root := 0; root < p; root += max(1, p/2) {
			w := newTestWorld(p, machine.Zero())
			w.Run(func(r Transport) {
				got := ReduceFloat64(r, root, float64(r.Rank()+1), func(a, b float64) float64 { return a + b })
				want := float64(p*(p+1)) / 2
				if r.Rank() == root && got != want {
					t.Errorf("p=%d root=%d reduce sum = %v, want %v", p, root, got, want)
				}
				if r.Rank() != root && got != 0 {
					t.Errorf("non-root rank %d returned %v, want 0", r.Rank(), got)
				}
			})
		}
	}
}

func TestAllreduceFloat64MaxAndSum(t *testing.T) {
	for _, p := range testPs {
		w := newTestWorld(p, machine.Zero())
		w.Run(func(r Transport) {
			if got := AllreduceFloat64(r, float64(r.Rank()), math.Max); got != float64(p-1) {
				t.Errorf("p=%d rank=%d allreduce max = %v, want %v", p, r.Rank(), got, p-1)
			}
			if got := AllreduceSumInt(r, 2); got != 2*p {
				t.Errorf("p=%d rank=%d allreduce sum int = %v, want %v", p, r.Rank(), got, 2*p)
			}
		})
	}
}

func TestAllreduceSumFloat64s(t *testing.T) {
	for _, p := range testPs {
		w := newTestWorld(p, machine.Zero())
		w.Run(func(r Transport) {
			vec := []float64{float64(r.Rank()), 1, float64(2 * r.Rank())}
			got := AllreduceSumFloat64s(r, vec)
			sumIDs := float64(p*(p-1)) / 2
			want := []float64{sumIDs, float64(p), 2 * sumIDs}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Errorf("p=%d rank=%d elem %d = %v, want %v", p, r.Rank(), i, got[i], want[i])
				}
			}
		})
	}
}

func TestAllgatherInts(t *testing.T) {
	for _, p := range testPs {
		w := newTestWorld(p, machine.Zero())
		w.Run(func(r Transport) {
			block := []int{r.Rank() * 2, r.Rank()*2 + 1}
			got := AllgatherInts(r, block)
			if len(got) != 2*p {
				t.Fatalf("p=%d len=%d", p, len(got))
			}
			for i := 0; i < 2*p; i++ {
				if got[i] != i {
					t.Errorf("p=%d rank=%d allgather[%d] = %d, want %d", p, r.Rank(), i, got[i], i)
				}
			}
		})
	}
}

func TestExchangeCounts(t *testing.T) {
	for _, p := range testPs {
		w := newTestWorld(p, machine.Zero())
		w.Run(func(r Transport) {
			// Rank s plans to send s*P+d elements to rank d.
			sendCounts := make([]int, p)
			for d := range sendCounts {
				sendCounts[d] = r.Rank()*p + d
			}
			recvCounts := ExchangeCounts(r, sendCounts)
			for s := 0; s < p; s++ {
				want := s*p + r.Rank()
				if recvCounts[s] != want {
					t.Errorf("p=%d rank=%d recvCounts[%d] = %d, want %d", p, r.Rank(), s, recvCounts[s], want)
				}
			}
		})
	}
}

func TestAllToMany(t *testing.T) {
	for _, p := range testPs {
		w := newTestWorld(p, machine.Zero())
		w.Run(func(r Transport) {
			// Rank s sends to every rank d with d <= s a payload
			// [s, d]; others get nothing (tests empty-message skipping).
			send := make([][]float64, p)
			counts := make([]int, p)
			for d := 0; d <= r.Rank(); d++ {
				send[d] = []float64{float64(r.Rank()), float64(d)}
				counts[d] = 2
			}
			recvCounts := ExchangeCounts(r, counts)
			recv := AllToManyFloat64s(r, send, recvCounts)
			// Sources s < r.Rank() sent nothing to us (they only send to d <= s).
			for s := 0; s < r.Rank(); s++ {
				if recv[s] != nil {
					t.Errorf("p=%d rank=%d unexpected payload from smaller rank %d", p, r.Rank(), s)
				}
			}
			// Sources s >= r.Rank() each sent [s, r.Rank()].
			for s := r.Rank(); s < p; s++ {
				if len(recv[s]) != 2 || recv[s][0] != float64(s) || recv[s][1] != float64(r.Rank()) {
					t.Errorf("p=%d rank=%d payload from %d = %v", p, r.Rank(), s, recv[s])
				}
			}
		})
	}
}

func TestAllToManyMessageCounting(t *testing.T) {
	// Only non-empty sends may be charged as messages.
	params := machine.Params{Tau: 1, MuPerByte: 0, Delta: 0}
	p := 4
	w := newTestWorld(p, params)
	ws := w.Run(func(r Transport) {
		send := make([][]float64, p)
		counts := make([]int, p)
		if r.Rank() == 0 {
			send[1] = []float64{1}
			counts[1] = 1
		}
		recvCounts := ExchangeCounts(r, counts)
		AllToManyFloat64s(r, send, recvCounts)
	})
	// Beyond the allgather (ring: p-1 sends per rank), rank 0 sends exactly
	// one extra message and ranks 2,3 send none.
	ringMsgs := int64(p - 1)
	if got := ws.Ranks[0].Total().MsgsSent; got != ringMsgs+1 {
		t.Errorf("rank 0 msgs = %d, want %d", got, ringMsgs+1)
	}
	for _, id := range []int{2, 3} {
		if got := ws.Ranks[id].Total().MsgsSent; got != ringMsgs {
			t.Errorf("rank %d msgs = %d, want %d (ring only)", id, got, ringMsgs)
		}
	}
}

func TestScanSumInt(t *testing.T) {
	for _, p := range testPs {
		w := newTestWorld(p, machine.Zero())
		w.Run(func(r Transport) {
			got := ScanSumInt(r, r.Rank()+1)      // contribute 1,2,...,p
			want := r.Rank() * (r.Rank() + 1) / 2 // sum of 1..ID
			if got != want {
				t.Errorf("p=%d rank=%d scan = %d, want %d", p, r.Rank(), got, want)
			}
		})
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic from rank to propagate")
		}
	}()
	w := newTestWorld(2, machine.Zero())
	w.Run(func(r Transport) {
		if r.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestInvalidRankPanics(t *testing.T) {
	w := newTestWorld(2, machine.Zero())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range destination")
		}
	}()
	w.Run(func(r Transport) {
		if r.Rank() == 0 {
			r.Send(5, TagUser, nil, 0)
		}
	})
}

// exerciseCollectives drives the full collective surface plus point-to-point
// traffic with deterministic data and returns a digest of every result this
// rank observed. Equal digests across runs mean byte-identical outputs.
func exerciseCollectives(t Transport) string {
	r, p := t.Rank(), t.Size()
	Barrier(t)
	bc := Bcast(t, 0, fmt.Sprintf("payload-from-%d", 0), 16)
	sum := AllreduceSumInt(t, r+1)
	maxv := AllreduceFloat64(t, 1.5*float64(r), math.Max)
	vec := AllreduceSumFloat64s(t, []float64{float64(r), 1, float64(r * r)})
	ag := AllgatherInts(t, []int{10 * r, 10*r + 1})
	scan := ScanSumInt(t, r+1)

	// All-to-many: every rank sends one float to every rank (self included).
	send := make([][]float64, p)
	counts := make([]int, p)
	for j := 0; j < p; j++ {
		send[j] = []float64{float64(100*r + j)}
		counts[j] = 1
	}
	recvCounts := ExchangeCounts(t, counts)
	a2m := AllToManyFloat64s(t, send, recvCounts)

	// Point-to-point ring with a user tag, two laps so per-link sequence
	// numbers grow past 0.
	const tagRing = TagUser + 9
	var ring []int
	for lap := 0; lap < 2; lap++ {
		next, prev := (r+1)%p, (r-1+p)%p
		sendInts(t, next, tagRing, []int{1000*lap + r})
		ring = append(ring, recvInts(t, prev, tagRing)...)
	}
	Barrier(t)
	return fmt.Sprint(bc, sum, maxv, vec, ag, scan, a2m, ring)
}

// runSoak executes the exerciser on a fresh world and returns the per-rank
// digests.
func runSoak(p int) []any {
	var digests []any
	w := newTestWorld(p, machine.CM5())
	w.Run(func(t Transport) {
		d := exerciseCollectives(t)
		out := t.Expose(d)
		if t.Rank() == 0 {
			digests = out
		}
	})
	return digests
}

// TestChaosSoakTracedStackByteIdentical: the documented decorator stack,
// Tracer ∘ World, leaves every collective and point-to-point output of the
// soak byte-identical to the bare goroutine world, and the tracer observes
// the traffic it passes through.
func TestChaosSoakTracedStackByteIdentical(t *testing.T) {
	const p = 4
	baseline := runSoak(p)
	tracer := NewTracer()
	var got []any
	w := newTestWorld(p, machine.CM5())
	w.RunWrapped(tracer.Wrap, func(tr Transport) {
		out := tr.Expose(exerciseCollectives(tr))
		if tr.Rank() == 0 {
			got = out
		}
	})
	for r := range baseline {
		if got[r] != baseline[r] {
			t.Errorf("rank %d: output diverged under the traced stack\n got %v\nwant %v", r, got[r], baseline[r])
		}
	}
	if tracer.Total().MsgsSent == 0 {
		t.Error("tracer observed no traffic")
	}
}
