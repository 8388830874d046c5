package comm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"picpar/internal/machine"
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
