package machine

import (
	"math"
	"testing"
)

// TestCostLedgerAttribution: one iteration's cost is split per observed
// particle, so a cell with twice the particles gets twice the cost, scaled
// by alpha.
func TestCostLedgerAttribution(t *testing.T) {
	l := NewCostLedger(4, 0.5)
	l.ObserveN(0, 1)
	l.ObserveN(0, 1)
	l.ObserveN(2, 1)
	l.Commit(30)
	// 3 particles share cost 30 → 10 each; alpha 0.5.
	if got := l.cost[0]; got != 0.5*20 {
		t.Errorf("cell 0 cost %g, want 10", got)
	}
	if got := l.cost[2]; got != 0.5*10 {
		t.Errorf("cell 2 cost %g, want 5", got)
	}
	if got := l.cost[1]; got != 0 {
		t.Errorf("untouched cell 1 cost %g, want 0", got)
	}
	if got := l.count[0]; got != 0.5*2 {
		t.Errorf("cell 0 count %g, want 1", got)
	}
}

// TestCostLedgerDecay: repeated identical iterations converge the estimate
// to the steady per-cell cost; an empty iteration only decays.
func TestCostLedgerDecay(t *testing.T) {
	l := NewCostLedger(2, 0.3)
	for i := 0; i < 200; i++ {
		l.ObserveN(0, 1)
		l.ObserveN(1, 1)
		l.Commit(8)
	}
	// Fixed point: cost = (1-a)·cost + a·4 → cost → 4.
	for c := 0; c < 2; c++ {
		if math.Abs(l.cost[c]-4) > 1e-9 {
			t.Errorf("cell %d cost %g, want 4", c, l.cost[c])
		}
		if math.Abs(l.count[c]-1) > 1e-9 {
			t.Errorf("cell %d count %g, want 1", c, l.count[c])
		}
	}
	before := l.cost[0]
	l.Commit(99) // nothing observed: pure decay, the 99 attributes to no one
	if want := before * 0.7; math.Abs(l.cost[0]-want) > 1e-12 {
		t.Errorf("empty commit: cost %g, want decayed %g", l.cost[0], want)
	}
}

// TestCostLedgerDeterministic: two ledgers fed the same sequence hold
// bit-identical estimates — the property cross-rank agreement rests on.
func TestCostLedgerDeterministic(t *testing.T) {
	a, b := NewCostLedger(16, 0.3), NewCostLedger(16, 0.3)
	for iter := 0; iter < 50; iter++ {
		for i := 0; i < 100; i++ {
			c := (iter*31 + i*7) % 16
			a.ObserveN(c, 1)
			b.ObserveN(c, 1)
		}
		cost := float64(iter%5) + 0.25
		a.Commit(cost)
		b.Commit(cost)
	}
	for c := 0; c < 16; c++ {
		if a.cost[c] != b.cost[c] || a.count[c] != b.count[c] {
			t.Fatalf("cell %d diverged: (%g,%g) vs (%g,%g)",
				c, a.cost[c], a.count[c], b.cost[c], b.count[c])
		}
	}
}

// TestCostLedgerOutOfRange: stray cell ids are dropped, not a panic.
func TestCostLedgerOutOfRange(t *testing.T) {
	l := NewCostLedger(2, 0.5)
	l.ObserveN(-1, 1)
	l.ObserveN(2, 1)
	l.ObserveN(0, 1)
	l.Commit(10)
	if l.cost[0] != 0.5*10 {
		t.Errorf("cell 0 cost %g, want 5 (out-of-range observations must not dilute)", l.cost[0])
	}
}

// TestCostLedgerExport: Export appends cost then count and reuses dst.
func TestCostLedgerExport(t *testing.T) {
	l := NewCostLedger(3, 1)
	l.ObserveN(1, 1)
	l.Commit(6)
	buf := make([]float64, 0, 6)
	out := l.Export(buf)
	if len(out) != 6 {
		t.Fatalf("export length %d, want 6", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Error("export reallocated despite sufficient capacity")
	}
	if out[1] != 6 || out[3+1] != 1 {
		t.Errorf("export contents %v, want cost[1]=6 count[1]=1", out)
	}
}

// TestCostLedgerZeroAllocSteadyState: after construction, a full
// ObserveN-all/Commit cycle allocates nothing — the acceptance criterion
// for running the ledger inside the iteration loop.
func TestCostLedgerZeroAllocSteadyState(t *testing.T) {
	const cells = 256
	l := NewCostLedger(cells, DefaultLedgerDecay)
	buf := make([]float64, 0, 2*cells)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			l.ObserveN(i%cells, 1) // touches every cell: worst-case touched growth
		}
		l.Commit(12.5)
		buf = l.Export(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state ledger cycle allocates %g per op, want 0", allocs)
	}
}
