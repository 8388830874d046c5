package psort

import (
	"math"
	"math/rand"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/particle"
)

// storesEqual compares two stores field by field.
func storesEqual(a, b *particle.Store) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.ID[i] != b.ID[i] || a.Key[i] != b.Key[i] || a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
			return false
		}
	}
	return true
}

// TestWeightedBalanceUniformEqualsLoadBalance: with uniform (or nil)
// weights the weighted balance must hand every rank exactly the store
// LoadBalance would — the equal-count split is the weight-1 special case
// all the way through the exchange machinery.
func TestWeightedBalanceUniformEqualsLoadBalance(t *testing.T) {
	const p = 4
	counts := []int{37, 1, 0, 62}
	build := func(rank int) *particle.Store {
		s := particle.NewStore(0, -1, 1)
		base := 0
		for k := 0; k < rank; k++ {
			base += counts[k]
		}
		for i := 0; i < counts[rank]; i++ {
			s.Append(0, 0, 0, 0, 0, float64(base+i))
			s.Key[s.Len()-1] = float64((base + i) / 3) // duplicated, sorted keys
		}
		return s
	}
	want := newGather()
	commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
		want.put(r.Rank(), balanced(r, build(r.Rank()), nil))
	})
	for _, w := range []float64{1, 0.125, 3.7} {
		w := w
		got := newGather()
		commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
			got.put(r.Rank(), balanced(r, build(r.Rank()), func(float64) float64 { return w }))
		})
		for rank := 0; rank < p; rank++ {
			if !storesEqual(got.stores[rank], want.stores[rank]) {
				t.Fatalf("w=%g rank %d: weighted balance differs from LoadBalance (%d vs %d particles)",
					w, rank, got.stores[rank].Len(), want.stores[rank].Len())
			}
		}
	}
}

// TestWeightedBalanceSkewedWeights: heavy keys concentrate on few ranks
// under equal-count; the weighted balance must equalise cumulative weight
// while preserving the global order and the particle multiset.
func TestWeightedBalanceSkewedWeights(t *testing.T) {
	const p, total = 4, 800
	wf := func(key float64) float64 {
		if key < 20 {
			return 30 // hot head of the key space
		}
		return 1
	}
	g := newGather()
	commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
		// Globally sorted start: rank k holds keys [k·50, (k+1)·50).
		s := particle.NewStore(0, -1, 1)
		for i := 0; i < total/p; i++ {
			gidx := r.Rank()*(total/p) + i
			s.Append(0, 0, 0, 0, 0, float64(gidx))
			s.Key[s.Len()-1] = math.Floor(float64(gidx) / float64(total/200))
		}
		g.put(r.Rank(), balanced(r, s, wf))
	})

	count := 0
	prevMax := math.Inf(-1)
	loads := make([]float64, p)
	seen := map[float64]bool{}
	for r := 0; r < p; r++ {
		s := g.stores[r]
		if !isLocallySorted(s) {
			t.Errorf("rank %d not locally sorted", r)
		}
		if s.Len() > 0 {
			if s.Key[0] < prevMax {
				t.Errorf("rank %d first key %g < previous max %g", r, s.Key[0], prevMax)
			}
			prevMax = s.Key[s.Len()-1]
		}
		for i := 0; i < s.Len(); i++ {
			loads[r] += wf(s.Key[i])
			if seen[s.ID[i]] {
				t.Errorf("duplicate id %v", s.ID[i])
			}
			seen[s.ID[i]] = true
		}
		count += s.Len()
	}
	if count != total {
		t.Fatalf("total %d, want %d", count, total)
	}
	totW := 0.0
	maxL := 0.0
	for _, l := range loads {
		totW += l
		if l > maxL {
			maxL = l
		}
	}
	if imb := maxL / (totW / p); imb > 1.35 {
		t.Errorf("weighted balance left weight imbalance %g (loads %v)", imb, loads)
	}
}

// TestRedistributeWeightedNilIsRedistribute: the nil-wf entry point runs
// the identical code path as Redistribute — same stores, same charges.
func TestRedistributeWeightedNilIsRedistribute(t *testing.T) {
	const p, perRank = 4, 100
	run := func(weighted bool) (*gather, []machine.Stats) {
		g := newGather()
		ws := commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
			rng := rand.New(rand.NewSource(int64(7 + r.Rank())))
			s := makeLocal(rng, perRank, r.Rank()*perRank, 500)
			s = SampleSort(r, s)
			inc := NewIncremental(0)
			inc.Prime(s)
			// Perturb keys slightly, as motion does, keeping local order.
			for i := range s.Key {
				s.Key[i] += math.Floor(rng.Float64() * 3)
			}
			inc.LocalSort(r, s)
			var out *particle.Store
			if weighted {
				out, _ = inc.RedistributeWeighted(r, s, nil)
			} else {
				out, _ = inc.Redistribute(r, s)
			}
			g.put(r.Rank(), out)
		})
		stats := make([]machine.Stats, p)
		for k := 0; k < p; k++ {
			stats[k] = ws.Ranks[k]
		}
		return g, stats
	}
	gw, sw := run(true)
	gp, sp := run(false)
	for rank := 0; rank < p; rank++ {
		if !storesEqual(gw.stores[rank], gp.stores[rank]) {
			t.Fatalf("rank %d: nil-wf weighted redistribute differs from Redistribute", rank)
		}
		if sw[rank].Total() != sp[rank].Total() {
			t.Fatalf("rank %d: charges differ: %+v vs %+v", rank, sw[rank].Total(), sp[rank].Total())
		}
	}
}

// TestRedistributeWeightedBalancesCost: a full incremental redistribution
// under a skewed weight function leaves per-rank cumulative weight near
// the mean while keeping every sortedness invariant.
func TestRedistributeWeightedBalancesCost(t *testing.T) {
	const p, perRank = 4, 200
	wf := func(key float64) float64 {
		if key < 50 {
			return 20
		}
		return 1
	}
	g := newGather()
	commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(int64(11 + r.Rank())))
		s := makeLocal(rng, perRank, r.Rank()*perRank, 400)
		s = SampleSort(r, s)
		inc := NewIncremental(0)
		inc.Prime(s)
		out, _ := inc.RedistributeWeighted(r, s, wf)
		g.put(r.Rank(), out)
	})
	count := 0
	prevMax := math.Inf(-1)
	loads := make([]float64, p)
	for r := 0; r < p; r++ {
		s := g.stores[r]
		if !isLocallySorted(s) {
			t.Errorf("rank %d not locally sorted", r)
		}
		if s.Len() > 0 {
			if s.Key[0] < prevMax {
				t.Errorf("rank %d breaks global order", r)
			}
			prevMax = s.Key[s.Len()-1]
		}
		for i := 0; i < s.Len(); i++ {
			loads[r] += wf(s.Key[i])
		}
		count += s.Len()
	}
	if count != p*perRank {
		t.Fatalf("total %d, want %d", count, p*perRank)
	}
	totW, maxL := 0.0, 0.0
	for _, l := range loads {
		totW += l
		if l > maxL {
			maxL = l
		}
	}
	if imb := maxL / (totW / p); imb > 1.35 {
		t.Errorf("weighted redistribute left weight imbalance %g (loads %v)", imb, loads)
	}
}

// TestWeightedBalanceDegenerateWeights: all-zero and non-finite weights
// fall back to the equal-count split instead of collapsing everything
// onto one rank.
func TestWeightedBalanceDegenerateWeights(t *testing.T) {
	const p = 3
	for _, wf := range []func(float64) float64{
		func(float64) float64 { return 0 },
		func(float64) float64 { return math.NaN() },
		func(float64) float64 { return -1 },
	} {
		wf := wf
		g := newGather()
		commtest.Launch(p, machine.CM5(), func(r comm.Transport) {
			s := particle.NewStore(0, -1, 1)
			for i := 0; i < 30; i++ {
				gidx := r.Rank()*30 + i
				s.Append(0, 0, 0, 0, 0, float64(gidx))
				s.Key[s.Len()-1] = float64(gidx)
			}
			g.put(r.Rank(), balanced(r, s, wf))
		})
		for r := 0; r < p; r++ {
			if g.stores[r].Len() != 30 {
				t.Fatalf("degenerate weights: rank %d holds %d, want 30", r, g.stores[r].Len())
			}
		}
	}
}
