package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMsgCost(t *testing.T) {
	p := Params{Tau: 10, MuPerByte: 2, Delta: 1}
	if got := p.MsgCost(0); got != 10 {
		t.Errorf("MsgCost(0) = %v, want 10 (pure startup)", got)
	}
	if got := p.MsgCost(5); got != 20 {
		t.Errorf("MsgCost(5) = %v, want 20", got)
	}
}

func TestComputeCost(t *testing.T) {
	p := Params{Delta: 0.5}
	if got := p.ComputeCost(4); got != 2 {
		t.Errorf("ComputeCost(4) = %v, want 2", got)
	}
	if got := p.ComputeCost(0); got != 0 {
		t.Errorf("ComputeCost(0) = %v, want 0", got)
	}
}

func TestCM5ParamsSane(t *testing.T) {
	p := CM5()
	if p.Tau <= 0 || p.MuPerByte <= 0 || p.Delta <= 0 {
		t.Fatalf("CM5 params must be positive: %+v", p)
	}
	// On the CM-5 the startup dominates small messages: τ >> μ per byte.
	if p.Tau < 100*p.MuPerByte {
		t.Errorf("expected tau >> mu: tau=%v mu=%v", p.Tau, p.MuPerByte)
	}
}

func TestZeroParams(t *testing.T) {
	p := Zero()
	if p.MsgCost(1000) != 0 || p.ComputeCost(1000) != 0 {
		t.Error("Zero() params must cost nothing")
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock = NewSimClock()
	c.Advance(1.5)
	c.Advance(2.5)
	if c.Now() != 4.0 {
		t.Errorf("Now() = %v, want 4.0", c.Now())
	}
	c.Advance(-100) // ignored
	if c.Now() != 4.0 {
		t.Errorf("negative advance must be ignored; Now() = %v", c.Now())
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock = NewSimClock()
	c.Advance(5)
	c.AdvanceTo(3) // earlier: no-op
	if c.Now() != 5 {
		t.Errorf("AdvanceTo(earlier) changed clock: %v", c.Now())
	}
	c.AdvanceTo(9)
	if c.Now() != 9 {
		t.Errorf("AdvanceTo(9): Now() = %v", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("Reset: Now() = %v", c.Now())
	}
}

func TestClockMonotonic(t *testing.T) {
	// Property: any sequence of Advance/AdvanceTo never decreases the clock.
	f := func(steps []float64) bool {
		var c Clock = NewSimClock()
		prev := 0.0
		for i, s := range steps {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			if i%2 == 0 {
				c.Advance(s)
			} else {
				c.AdvanceTo(s)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhaseString(t *testing.T) {
	cases := map[Phase]string{
		PhaseScatter:      "scatter",
		PhaseFieldSolve:   "fieldsolve",
		PhaseGather:       "gather",
		PhasePush:         "push",
		PhaseRedistribute: "redistribute",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if Phase(99).String() != "phase(99)" {
		t.Errorf("out-of-range phase: %q", Phase(99).String())
	}
}

func TestStatsPhaseRouting(t *testing.T) {
	var s Stats
	s.SetPhase(PhaseScatter)
	s.RecordCompute(1.0)
	s.RecordSend(100, 0.5)
	s.SetPhase(PhaseGather)
	s.RecordRecv(200, 0.25)

	sc := s.Phases[PhaseScatter]
	if sc.ComputeTime != 1.0 || sc.BytesSent != 100 || sc.MsgsSent != 1 || sc.CommTime != 0.5 {
		t.Errorf("scatter phase stats wrong: %+v", sc)
	}
	ga := s.Phases[PhaseGather]
	if ga.BytesRecv != 200 || ga.MsgsRecv != 1 || ga.CommTime != 0.25 {
		t.Errorf("gather phase stats wrong: %+v", ga)
	}
	tot := s.Total()
	if tot.ComputeTime != 1.0 || tot.CommTime != 0.75 {
		t.Errorf("totals wrong: %+v", tot)
	}
}

func TestStatsDiff(t *testing.T) {
	var s Stats
	s.SetPhase(PhaseScatter)
	s.RecordCompute(1)
	snap := s.Snapshot()
	s.RecordCompute(2)
	s.RecordSend(10, 0.1)
	d := s.Diff(&snap)
	if d.Phases[PhaseScatter].ComputeTime != 2 {
		t.Errorf("diff compute = %v, want 2", d.Phases[PhaseScatter].ComputeTime)
	}
	if d.Phases[PhaseScatter].BytesSent != 10 {
		t.Errorf("diff bytes = %v, want 10", d.Phases[PhaseScatter].BytesSent)
	}
}

func TestWorldStatsMaxPhase(t *testing.T) {
	var a, b Stats
	a.SetPhase(PhaseScatter)
	a.RecordSend(100, 1)
	b.SetPhase(PhaseScatter)
	b.RecordSend(300, 2)
	w := WorldStats{Ranks: []Stats{a, b}}
	got := w.MaxPhase(PhaseScatter, func(s PhaseStats) float64 { return float64(s.BytesSent) })
	if got != 300 {
		t.Errorf("MaxPhase bytes = %v, want 300", got)
	}
}

func TestWorldStatsTotals(t *testing.T) {
	var a, b Stats
	a.RecordCompute(2)
	b.RecordCompute(5)
	w := WorldStats{Ranks: []Stats{a, b}}
	if w.TotalCompute() != 7 {
		t.Errorf("TotalCompute = %v, want 7", w.TotalCompute())
	}
	if w.MaxCompute() != 5 {
		t.Errorf("MaxCompute = %v, want 5", w.MaxCompute())
	}
}

func TestFormatIncludesAllPhases(t *testing.T) {
	w := WorldStats{Ranks: make([]Stats, 2)}
	out := w.Format()
	for _, name := range []string{"scatter", "fieldsolve", "gather", "push", "redistribute"} {
		if !contains(out, name) {
			t.Errorf("Format() missing phase %q:\n%s", name, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
