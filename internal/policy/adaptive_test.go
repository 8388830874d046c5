package policy

import "testing"

// TestStrategyStringParseRoundTrip: every named strategy survives the
// String/ParseStrategy round trip, the empty name is equal-count, and
// unknown names error.
func TestStrategyStringParseRoundTrip(t *testing.T) {
	for _, s := range []Strategy{EqualCount, CostWeighted, Eulerian} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip of %v: got %v, err %v", s, got, err)
		}
	}
	if s, err := ParseStrategy(""); err != nil || s != EqualCount {
		t.Errorf("empty name: got %v, err %v", s, err)
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted an unknown name")
	}
}

// TestWithStrategyFixesDecision: a WithStrategy-decorated Periodic decides
// the fixed strategy on every firing; Static passes through unchanged.
func TestWithStrategyFixesDecision(t *testing.T) {
	p := WithStrategy(NewPeriodic(2), CostWeighted)()
	fired := 0
	for i := 0; i < 10; i++ {
		d := p.Decide(i, 1.0)
		if d.Redistribute {
			fired++
			if d.Strategy != CostWeighted {
				t.Fatalf("iter %d decided %v, want cost-weighted", i, d.Strategy)
			}
			p.NotifyRedistribution(i, 0.1)
		}
	}
	if fired == 0 {
		t.Fatal("decorated periodic never fired")
	}

	dyn := WithStrategy(NewDynamic(), Eulerian)().(*Dynamic)
	if dyn.Strategy != Eulerian {
		t.Errorf("WithStrategy did not set Dynamic's strategy")
	}

	if _, ok := WithStrategy(NewStatic(), CostWeighted)().(Static); !ok {
		t.Error("Static did not pass through WithStrategy")
	}
}

// TestDefaultDecisionsAreEqualCount: undecorated policies decide the
// zero-value strategy — the byte-identical default path.
func TestDefaultDecisionsAreEqualCount(t *testing.T) {
	p := NewPeriodic(1)()
	d := p.Decide(0, 1.0)
	if !d.Redistribute || d.Strategy != EqualCount {
		t.Fatalf("default periodic decision %+v, want equal-count rebalance", d)
	}
}

// TestAdaptiveChoosesViaChooser: the inner trigger gates the timing, the
// chooser picks the strategy, and the next firing presents it as current.
func TestAdaptiveChoosesViaChooser(t *testing.T) {
	a := NewAdaptiveEvery(3)().(*Adaptive)
	var sawCurrent []Strategy
	a.SetChooser(func(iter int, current Strategy) Strategy {
		sawCurrent = append(sawCurrent, current)
		return CostWeighted
	})

	if d := a.Decide(0, 1.0); d.Redistribute {
		t.Fatal("adaptive fired off the periodic cadence")
	}
	d := a.Decide(2, 1.0)
	if !d.Redistribute || d.Strategy != CostWeighted {
		t.Fatalf("decision %+v, want cost-weighted rebalance", d)
	}
	a.NotifyRedistribution(2, 0.5)
	if a.Strategy() != CostWeighted {
		t.Fatal("decided strategy not current after the redistribution")
	}
	if len(sawCurrent) != 1 || sawCurrent[0] != EqualCount {
		t.Errorf("chooser saw current %v, want one equal-count call", sawCurrent)
	}

	// The next firing presents the decided strategy as current.
	a.Decide(5, 1.0)
	if len(sawCurrent) != 2 || sawCurrent[1] != CostWeighted {
		t.Errorf("second chooser call saw %v, want cost-weighted", sawCurrent)
	}
}

// TestAdaptiveWithoutChooserKeepsCurrent: with no chooser installed the
// adaptive policy behaves like its inner trigger with its current
// (initially equal-count) strategy.
func TestAdaptiveWithoutChooserKeepsCurrent(t *testing.T) {
	a := NewAdaptiveEvery(1)().(*Adaptive)
	d := a.Decide(0, 1.0)
	if !d.Redistribute || d.Strategy != EqualCount {
		t.Fatalf("decision %+v, want equal-count", d)
	}
}

// TestAdaptiveSARTrigger: NewAdaptive wraps the SAR dynamic trigger and
// inherits its baseline/threshold behaviour.
func TestAdaptiveSARTrigger(t *testing.T) {
	a := NewAdaptive()().(*Adaptive)
	a.NotifyRedistribution(-1, 2.0)
	if a.Decide(0, 1.0).Redistribute {
		t.Fatal("fired while establishing baseline")
	}
	if a.Decide(2, 1.5).Redistribute {
		t.Fatal("fired below threshold")
	}
	if !a.Decide(3, 2.0).Redistribute {
		t.Fatal("did not fire above threshold")
	}
}
