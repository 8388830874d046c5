package psort

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/particle"
)

// makeLocal builds a store of n particles with keys drawn from rng; ids are
// globally unique given distinct (rank, n) bases.
func makeLocal(rng *rand.Rand, n int, idBase int, keyMax float64) *particle.Store {
	s := particle.NewStore(n, -1, 1)
	for i := 0; i < n; i++ {
		s.Append(rng.Float64(), rng.Float64(), 0, 0, 0, float64(idBase+i))
		s.Key[len(s.Key)-1] = math.Floor(rng.Float64() * keyMax)
	}
	return s
}

// gather collects every rank's final store under a mutex for global checks.
type gather struct {
	mu     sync.Mutex
	stores map[int]*particle.Store
}

func newGather() *gather { return &gather{stores: map[int]*particle.Store{}} }

// balanced runs the order-maintaining balance of s — weighted under wf,
// equal-count under nil — on a fresh Incremental.
func balanced(r comm.Transport, s *particle.Store, wf func(key float64) float64) *particle.Store {
	inc := NewIncremental(0)
	return inc.weightedBalanceInto(r, inc.whole(s), inc.Spare(s, 0), wf, nil)
}

// isLocallySorted reports whether s is non-decreasing by key.
func isLocallySorted(s *particle.Store) bool {
	for i := 1; i < s.Len(); i++ {
		if s.Key[i] < s.Key[i-1] {
			return false
		}
	}
	return true
}

func (g *gather) put(rank int, s *particle.Store) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stores[rank] = s
}

// checkGlobal verifies the invariants every (re)distribution must deliver:
// each rank locally sorted, ranks ordered, counts balanced, and the global
// multiset of particle ids preserved.
func (g *gather) checkGlobal(t *testing.T, p, total int, wantIDs map[float64]bool) {
	t.Helper()
	count := 0
	prevMax := math.Inf(-1)
	seen := map[float64]bool{}
	for r := 0; r < p; r++ {
		s := g.stores[r]
		if s == nil {
			t.Fatalf("rank %d produced no store", r)
		}
		if !isLocallySorted(s) {
			t.Errorf("rank %d not locally sorted", r)
		}
		n := s.Len()
		count += n
		lo, hi := total/p, total/p+1
		if n < lo || n > hi {
			t.Errorf("rank %d holds %d particles, want %d..%d", r, n, lo, hi)
		}
		if n > 0 {
			if s.Key[0] < prevMax {
				t.Errorf("rank %d first key %g < previous rank max %g", r, s.Key[0], prevMax)
			}
			prevMax = s.Key[n-1]
		}
		for _, id := range s.ID {
			if seen[id] {
				t.Errorf("duplicate particle id %v", id)
			}
			seen[id] = true
		}
	}
	if count != total {
		t.Errorf("total particles %d, want %d", count, total)
	}
	for id := range wantIDs {
		if !seen[id] {
			t.Errorf("lost particle id %v", id)
		}
	}
}

func TestLocalSort(t *testing.T) {
	ws := commtest.Launch(1, machine.CM5(), func(r comm.Transport) {
		s := makeLocal(rand.New(rand.NewSource(1)), 100, 0, 50)
		NewIncremental(0).LocalSort(r, s)
		if !isLocallySorted(s) {
			t.Error("not sorted")
		}
	})
	if ws.Ranks[0].Total().ComputeTime <= 0 {
		t.Error("sort charged no compute time")
	}
}

func TestIsLocallySorted(t *testing.T) {
	s := particle.NewStore(2, -1, 1)
	s.Append(0, 0, 0, 0, 0, 0)
	s.Append(0, 0, 0, 0, 0, 1)
	s.Key[0], s.Key[1] = 2, 1
	if isLocallySorted(s) {
		t.Error("descending keys reported sorted")
	}
	s.Key[1] = 2
	if !isLocallySorted(s) {
		t.Error("equal keys must count as sorted")
	}
}

func TestSampleSortGlobal(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7, 8} {
		for _, perRank := range []int{0, 5, 200} {
			total := p * perRank
			g := newGather()
			wantIDs := map[float64]bool{}
			for i := 0; i < total; i++ {
				wantIDs[float64(i)] = true
			}
			commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
				rng := rand.New(rand.NewSource(int64(100 + r.Rank())))
				s := makeLocal(rng, perRank, r.Rank()*perRank, 1000)
				g.put(r.Rank(), SampleSort(r, s))
			})
			g.checkGlobal(t, p, total, wantIDs)
		}
	}
}

func TestSampleSortSkewedInput(t *testing.T) {
	// All particles start on rank 0 — the worst case for splitters.
	const p = 4
	const total = 400
	g := newGather()
	commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
		var s *particle.Store
		if r.Rank() == 0 {
			s = makeLocal(rand.New(rand.NewSource(7)), total, 0, 64)
		} else {
			s = particle.NewStore(0, -1, 1)
		}
		g.put(r.Rank(), SampleSort(r, s))
	})
	wantIDs := map[float64]bool{}
	for i := 0; i < total; i++ {
		wantIDs[float64(i)] = true
	}
	g.checkGlobal(t, p, total, wantIDs)
}

func TestLoadBalancePreservesOrder(t *testing.T) {
	// Start from a globally sorted but unbalanced layout.
	const p = 4
	counts := []int{37, 1, 0, 62}
	total := 100
	g := newGather()
	commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
		s := particle.NewStore(0, -1, 1)
		base := 0
		for k := 0; k < r.Rank(); k++ {
			base += counts[k]
		}
		for i := 0; i < counts[r.Rank()]; i++ {
			s.Append(0, 0, 0, 0, 0, float64(base+i))
			s.Key[s.Len()-1] = float64(base + i) // keys already globally sorted
		}
		g.put(r.Rank(), balanced(r, s, nil))
	})
	wantIDs := map[float64]bool{}
	for i := 0; i < total; i++ {
		wantIDs[float64(i)] = true
	}
	g.checkGlobal(t, p, total, wantIDs)
	// Order maintained exactly: concatenated keys are 0..99 in order.
	var keys []float64
	for r := 0; r < p; r++ {
		keys = append(keys, g.stores[r].Key...)
	}
	for i, k := range keys {
		if k != float64(i) {
			t.Fatalf("global order broken at %d: key %g", i, k)
		}
	}
}

func TestLoadBalanceSingleRankNoOp(t *testing.T) {
	commtest.Launch(1, machine.CM5(), func(r comm.Transport) {
		s := makeLocal(rand.New(rand.NewSource(1)), 10, 0, 10)
		out := balanced(r, s, nil)
		if out != s {
			t.Error("p=1 must return the same store")
		}
	})
}

func TestIncrementalRedistributeFromScratch(t *testing.T) {
	// Prime on an initial sample-sorted order, then perturb keys slightly
	// (as particle motion does) and redistribute incrementally.
	for _, p := range []int{2, 4, 8} {
		const perRank = 150
		total := p * perRank
		g := newGather()
		statsCh := make(chan Stats, p)
		commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
			rng := rand.New(rand.NewSource(int64(500 + r.Rank())))
			s := makeLocal(rng, perRank, r.Rank()*perRank, 4096)
			s = SampleSort(r, s)
			inc := NewIncremental(8)
			inc.Prime(s)
			// Perturb: small key drift for most, large for a few.
			for i := 0; i < s.Len(); i++ {
				if rng.Float64() < 0.1 {
					s.Key[i] = math.Floor(rng.Float64() * 4096)
				} else if rng.Float64() < 0.5 {
					s.Key[i] = math.Max(0, s.Key[i]+math.Floor(rng.Float64()*8-4))
				}
			}
			out, st := inc.Redistribute(r, s)
			statsCh <- st
			g.put(r.Rank(), out)
		})
		wantIDs := map[float64]bool{}
		for i := 0; i < total; i++ {
			wantIDs[float64(i)] = true
		}
		g.checkGlobal(t, p, total, wantIDs)
		close(statsCh)
		var agg Stats
		for st := range statsCh {
			agg.SameBucket += st.SameBucket
			agg.OtherBucket += st.OtherBucket
			agg.OffProc += st.OffProc
		}
		if agg.SameBucket+agg.OtherBucket+agg.OffProc != total {
			t.Errorf("p=%d classification does not cover all particles: %+v", p, agg)
		}
		// Small perturbations: most particles stay in the same bucket.
		if agg.SameBucket < total/2 {
			t.Errorf("p=%d expected mostly same-bucket hits, got %+v", p, agg)
		}
	}
}

func TestIncrementalRepeatedRedistributions(t *testing.T) {
	// Run several perturbation/redistribute rounds; invariants must hold
	// after every round.
	const p = 4
	const perRank = 100
	total := p * perRank
	for round := 0; round < 5; round++ {
		round := round
		g := newGather()
		commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
			rng := rand.New(rand.NewSource(int64(r.Rank()*1000 + 17)))
			s := makeLocal(rng, perRank, r.Rank()*perRank, 1024)
			s = SampleSort(r, s)
			inc := NewIncremental(0) // default bucket count
			inc.Prime(s)
			for k := 0; k <= round; k++ {
				for i := 0; i < s.Len(); i++ {
					s.Key[i] = math.Max(0, s.Key[i]+math.Floor(rng.Float64()*20-10))
				}
				s, _ = inc.Redistribute(r, s)
			}
			g.put(r.Rank(), s)
		})
		wantIDs := map[float64]bool{}
		for i := 0; i < total; i++ {
			wantIDs[float64(i)] = true
		}
		g.checkGlobal(t, p, total, wantIDs)
	}
}

func TestIncrementalNoMovement(t *testing.T) {
	// If keys do not change, redistribution must classify everything
	// same-bucket and move nothing off-processor.
	const p = 4
	commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(int64(900 + r.Rank())))
		s := makeLocal(rng, 64, r.Rank()*64, 512)
		s = SampleSort(r, s)
		inc := NewIncremental(8)
		inc.Prime(s)
		out, st := inc.Redistribute(r, s)
		if st.OffProc != 0 {
			t.Errorf("rank %d: %d particles moved without key changes", r.Rank(), st.OffProc)
		}
		// Duplicate keys sitting exactly on a bucket boundary may classify
		// as other-bucket; everything else must be a same-bucket hit.
		if st.SameBucket+st.OtherBucket != 64 || st.SameBucket < 56 {
			t.Errorf("rank %d: same-bucket %d other %d, want ~64 same", r.Rank(), st.SameBucket, st.OtherBucket)
		}
		if out.Len() != 64 {
			t.Errorf("rank %d: count changed to %d", r.Rank(), out.Len())
		}
	})
}

func TestIncrementalCheaperThanFullSort(t *testing.T) {
	// The paper's Figure 11 claim: redistribution via incremental sorting
	// costs less (simulated time) than a full sample sort when movement is
	// incremental.
	const p = 8
	const perRank = 500
	params := machine.CM5()

	run := func(incremental bool) float64 {
		var maxTime float64
		var mu sync.Mutex
		commtest.Launch(p, params, func(r comm.Transport) {
			rng := rand.New(rand.NewSource(int64(33 + r.Rank())))
			s := makeLocal(rng, perRank, r.Rank()*perRank, 8192)
			s = SampleSort(r, s)
			inc := NewIncremental(16)
			inc.Prime(s)
			// Small drift.
			for i := 0; i < s.Len(); i++ {
				s.Key[i] = math.Max(0, s.Key[i]+math.Floor(rng.Float64()*6-3))
			}
			comm.Barrier(r)
			t0 := r.Clock().Now()
			if incremental {
				s, _ = inc.Redistribute(r, s)
			} else {
				s = SampleSort(r, s)
			}
			comm.Barrier(r)
			elapsed := r.Clock().Now() - t0
			mu.Lock()
			if elapsed > maxTime {
				maxTime = elapsed
			}
			mu.Unlock()
		})
		return maxTime
	}

	tInc := run(true)
	tFull := run(false)
	if tInc >= tFull {
		t.Errorf("incremental sort (%.6fs) should beat full sample sort (%.6fs)", tInc, tFull)
	}
}

// TestMergeSorted pins the kept-run merge: keys alone decide, and on equal
// keys the kept particle (of a, read through the kept indices) goes before
// the received one (of b, read through its sorted index list) even when
// the received id is smaller, so the merge is not the (Key, ID) order. The
// merge is recorded as runs; copied out, all columns travel with their
// particle, Z included.
func TestMergeSorted(t *testing.T) {
	commtest.Launch(1, machine.Zero(), func(r comm.Transport) {
		a := particle.NewStore3(0, -1, 1)
		b := particle.NewStore3(0, -1, 1)
		// a holds the kept run back to front; kept reads it in order.
		for i, k := range []float64{5, 3, 3, 1} {
			a.Append3(float64(13-i), 0, float64(i-13), 0, 0, 0, float64(13-i))
			a.Key[a.Len()-1] = k
		}
		kept := []int{3, 2, 1, 0}
		// b holds the received run in reverse too.
		for i, k := range []float64{7, 6, 3, 3, 2} {
			b.Append3(float64(4-i), 0, float64(i-4), 0, 0, 0, float64(4-i))
			b.Key[b.Len()-1] = k
		}
		rcv := []int{4, 3, 2, 1, 0}
		inc := NewIncremental(0)
		q := inc.merge(r, a, kept, b, rcv)
		m := q.copyTo(a.NewLike(0))
		wantKey := []float64{1, 2, 3, 3, 3, 3, 5, 6, 7}
		wantID := []float64{10, 0, 11, 12, 1, 2, 13, 3, 4}
		if m.Len() != len(wantID) || q.len() != len(wantID) {
			t.Fatalf("merged len %d (runs hold %d)", m.Len(), q.len())
		}
		for i := range wantID {
			if m.Key[i] != wantKey[i] || m.ID[i] != wantID[i] || m.X[i] != m.ID[i] || m.Z[i] != -m.ID[i] {
				t.Errorf("merged[%d] = key %g id %g (x %g z %g), want key %g id %g",
					i, m.Key[i], m.ID[i], m.X[i], m.Z[i], wantKey[i], wantID[i])
			}
		}
		// Every part of every run, read back piecewise across run
		// boundaries, marshals to the same words as the copied store.
		for lo := 0; lo <= m.Len(); lo++ {
			for hi := lo; hi <= m.Len(); hi++ {
				var got []float64
				q.each(lo, hi, func(part run) { got = part.marshal(got) })
				want := m.MarshalRange(nil, lo, hi)
				if len(got) != len(want) {
					t.Fatalf("positions [%d, %d): %d words, want %d", lo, hi, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("positions [%d, %d): word %d = %g, want %g", lo, hi, k, got[k], want[k])
					}
				}
			}
		}
	})
}

func TestIlog2(t *testing.T) {
	// n ∈ {0, 1} deliberately give 1, not 0 — see the ilog2 doc comment.
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1000: 10, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := ilog2(n); got != want {
			t.Errorf("ilog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBucketFor(t *testing.T) {
	inc := NewIncremental(4)
	inc.localBound = []float64{10, 20, 30, 40}
	inc.upper = 49
	cases := map[float64]int{5: 0, 10: 0, 15: 0, 20: 1, 25: 1, 40: 3, 45: 3, 100: 3}
	for key, want := range cases {
		if got := inc.bucketFor(key); got != want {
			t.Errorf("bucketFor(%g) = %d, want %d", key, got, want)
		}
	}
}

func TestSearchOwner(t *testing.T) {
	upper := []float64{10, 20, 30}
	cases := map[float64]int{0: 0, 10: 0, 11: 1, 20: 1, 25: 2, 30: 2, 99: 2}
	for key, want := range cases {
		if got := searchOwner(upper, key); got != want {
			t.Errorf("searchOwner(%g) = %d, want %d", key, got, want)
		}
	}
}

func TestPrimeEmptyStore(t *testing.T) {
	inc := NewIncremental(4)
	s := particle.NewStore(0, -1, 1)
	inc.Prime(s)
	if !math.IsInf(inc.upper, -1) {
		t.Errorf("empty upper = %v, want -inf", inc.upper)
	}
	for _, b := range inc.localBound {
		if !math.IsInf(b, 1) {
			t.Errorf("empty bound = %v, want +inf", b)
		}
	}
}

func TestSampleSortDeterministic(t *testing.T) {
	run := func() []float64 {
		g := newGather()
		commtest.Launch(4, machine.CM5(), func(r comm.Transport) {
			s := makeLocal(rand.New(rand.NewSource(int64(r.Rank()))), 50, r.Rank()*50, 777)
			g.put(r.Rank(), SampleSort(r, s))
		})
		var ids []float64
		for r := 0; r < 4; r++ {
			ids = append(ids, g.stores[r].ID...)
		}
		return ids
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sample sort is not deterministic")
		}
	}
	if !sort.Float64sAreSorted(nil) { // keep sort import for clarity
		t.Fatal("unreachable")
	}
}
