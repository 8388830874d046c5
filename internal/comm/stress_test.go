package comm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"picpar/internal/machine"
	"picpar/internal/wire"
)

// TestCollectivesAgreeUnderRandomLoads drives reduce/allgather/all-to-many
// with randomised payload shapes and verifies global agreement — a
// property-based integration test of the whole collective stack.
func TestCollectivesAgreeUnderRandomLoads(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(12)
		vals := make([]float64, p)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		ok := true
		w := newTestWorld(p, machine.Zero())
		w.Run(func(r Transport) {
			got := AllreduceFloat64(r, vals[r.Rank()], func(a, b float64) float64 { return a + b })
			if diff := got - sum; diff > 1e-9 || diff < -1e-9 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAllToManyRandomisedMatrix(t *testing.T) {
	// Random traffic matrices: every payload must arrive intact at its
	// destination with correct source attribution.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(10)
		// amounts[s][d]
		amounts := make([][]int, p)
		for s := range amounts {
			amounts[s] = make([]int, p)
			for d := range amounts[s] {
				if rng.Intn(3) == 0 {
					amounts[s][d] = rng.Intn(20)
				}
			}
		}
		ok := true
		w := newTestWorld(p, machine.Zero())
		w.Run(func(r Transport) {
			send := make([][]float64, p)
			counts := make([]int, p)
			for d := 0; d < p; d++ {
				n := amounts[r.Rank()][d]
				if n == 0 {
					continue
				}
				buf := make([]float64, n)
				for i := range buf {
					buf[i] = float64(r.Rank()*1000 + d)
				}
				send[d] = buf
				counts[d] = n
			}
			recvCounts := ExchangeCounts(r, counts)
			recv := AllToManyFloat64s(r, send, recvCounts)
			for s := 0; s < p; s++ {
				want := amounts[s][r.Rank()]
				if len(recv[s]) != want {
					ok = false
					continue
				}
				for _, v := range recv[s] {
					if v != float64(s*1000+r.Rank()) {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestManyConcurrentWorlds(t *testing.T) {
	// Worlds must be fully isolated: run several concurrently and check
	// each one's reduction.
	done := make(chan bool, 8)
	for k := 0; k < 8; k++ {
		go func(k int) {
			w := newTestWorld(4, machine.Zero())
			okAll := true
			w.Run(func(r Transport) {
				got := AllreduceSumInt(r, k)
				if got != 4*k {
					okAll = false
				}
			})
			done <- okAll
		}(k)
	}
	for k := 0; k < 8; k++ {
		if !<-done {
			t.Fatal("cross-world interference detected")
		}
	}
}

func TestBarrierStress(t *testing.T) {
	// Many consecutive barriers at p=9 (non-power-of-two) must not
	// deadlock or mis-pair rounds.
	w := newTestWorld(9, machine.Zero())
	w.Run(func(r Transport) {
		for i := 0; i < 200; i++ {
			Barrier(r)
		}
	})
}

func TestExpose(t *testing.T) {
	w := newTestWorld(5, machine.Zero())
	w.Run(func(r Transport) {
		all := r.Expose(r.Rank() * 10)
		for i, v := range all {
			if v.(int) != i*10 {
				t.Errorf("rank %d sees %v at %d", r.Rank(), v, i)
			}
		}
		if got := ExposeMaxFloat64(r, float64(r.Rank())); got != 4 {
			t.Errorf("ExposeMaxFloat64 = %v", got)
		}
		if got := ExposeSumFloat64(r, 1.5); got != 7.5 {
			t.Errorf("ExposeSumFloat64 = %v", got)
		}
		vec := []float64{-1, -5}
		for _, x := range r.Expose([]float64{float64(r.Rank()), float64(-r.Rank())}) {
			for i, v := range x.([]float64) {
				vec[i] = max(vec[i], v)
			}
		}
		if vec[0] != 4 || vec[1] != 0 {
			t.Errorf("element-wise max of exposed vectors = %v", vec)
		}
	})
}

func TestExposeSequentialCallsDoNotInterfere(t *testing.T) {
	// The double barrier must prevent a fast rank's second publication
	// from clobbering a slow rank's read of the first.
	w := newTestWorld(4, machine.Zero())
	w.Run(func(r Transport) {
		for round := 0; round < 50; round++ {
			all := r.Expose(round*100 + r.Rank())
			for i, v := range all {
				if v.(int) != round*100+i {
					t.Errorf("round %d rank %d: stale value %v at %d", round, r.Rank(), v, i)
					return
				}
			}
		}
	})
}

func BenchmarkBarrier(b *testing.B) {
	w := newTestWorld(8, machine.Zero())
	w.Run(func(r Transport) {
		for i := 0; i < b.N; i++ {
			Barrier(r)
		}
	})
}

func BenchmarkAllToMany(b *testing.B) {
	const p = 8
	w := newTestWorld(p, machine.Zero())
	w.Run(func(r Transport) {
		send := make([][]float64, p)
		counts := make([]int, p)
		for d := 0; d < p; d++ {
			if d != r.Rank() {
				send[d] = make([]float64, 128)
				counts[d] = 128
			}
		}
		recvCounts := ExchangeCounts(r, counts)
		for i := 0; i < b.N; i++ {
			AllToManyFloat64s(r, send, recvCounts)
		}
	})
}

// lateReader is a decorator under which rank 0 returns from every Expose a
// few milliseconds after the others, so they race ahead into their next
// publication while it still holds the table.
type lateReader struct{ Transport }

func (l lateReader) Unwrap() Transport { return l.Transport }

func (l lateReader) Expose(v any) []any {
	all := l.Transport.Expose(v)
	if l.Rank() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	return all
}

// TestExposeTableLifetime checks Expose's lifetime rule on every backend:
// a table, and the values in it, stay intact until the rank's own next
// Expose, even when the other ranks have already published again and
// traffic has cycled the wire pool in between. Each round publishes a
// vector from two buffers used in turn, as the time step's measurement
// does, then two scalars back to back through ExposeSumFloat64 and
// ExposeMaxFloat64; rank 0 reads the vector table only after a ring of
// pooled messages.
func TestExposeTableLifetime(t *testing.T) {
	const p, rounds = 4, 12
	program := func(backend string) func(Transport) {
		return func(tr Transport) {
			r := tr.Rank()
			var bufs [2][]float64
			for round := 0; round < rounds; round++ {
				vec := &bufs[round%2]
				*vec = append((*vec)[:0], float64(100*round+r), float64(-r))
				all := tr.Expose(vec)
				next, prev := (r+1)%p, (r-1+p)%p
				SendFloat64s(tr, next, TagUser, append(wire.Get(3), -1, -2, -3))
				wire.Put(RecvFloat64s(tr, prev, TagUser))
				for i, x := range all {
					if got := *x.(*[]float64); got[0] != float64(100*round+i) || got[1] != float64(-i) {
						t.Errorf("%s round %d rank %d: slot %d holds %v", backend, round, r, i, got)
					}
				}
				want := float64(p*round + p*(p-1)/2)
				if got := ExposeSumFloat64(tr, float64(round+r)); got != want {
					t.Errorf("%s round %d rank %d: ExposeSumFloat64 = %v, want %v", backend, round, r, got, want)
				}
				if got := ExposeMaxFloat64(tr, float64(-round-r)); got != float64(-round) {
					t.Errorf("%s round %d rank %d: ExposeMaxFloat64 = %v, want %v", backend, round, r, got, -round)
				}
			}
		}
	}
	wrap := func(tr Transport) Transport { return lateReader{tr} }
	newTestWorld(p, machine.Zero()).RunWrapped(wrap, program("world"))
	_, errs := LaunchLoopback(netTestTemplate(), p, wrap, program("tcp"))
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", rank, err)
		}
	}
	if _, err := LaunchHierarchical(p, 2, machine.Zero(), EnvWatchdog(10*time.Second), wrap, program("hier")); err != nil {
		t.Fatalf("hier: %v", err)
	}
}
