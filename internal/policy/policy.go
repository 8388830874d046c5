// Package policy implements the redistribution decision policies of the
// paper's Section 5.2: Static (never redistribute), Periodic (every k
// iterations), and Dynamic — the Stop-At-Rise heuristic that triggers
// redistribution when the projected time saved exceeds the measured cost of
// the previous redistribution:
//
//	(t1 − t0) · (i1 − i0) ≥ T_redistribution
//
// where t0 is the iteration time observed right after the last
// redistribution at iteration i0, and t1 is the current iteration time.
//
// A decision carries more than a boolean: it names the layout Strategy to
// rebuild with — which splitter (equal-count or cost-weighted) and which
// movement scheme (Lagrangian or Eulerian). The paper's policies always
// answer with one fixed strategy; the Adaptive policy (adaptive.go) scores
// candidates against live cost measurements first.
//
// Policies are driven with globally agreed values (iteration times reduced
// over all ranks), so every rank instance of the same policy makes the same
// decision at the same iteration.
package policy

import "fmt"

// Decision is a policy's answer: keep the current layout, or rebuild it
// with the named strategy.
type Decision struct {
	Redistribute bool
	Strategy     Strategy
}

// KeepLayout is the no-redistribution decision.
var KeepLayout = Decision{}

// Rebalance returns the decision to rebuild the layout with strategy s.
func Rebalance(s Strategy) Decision { return Decision{Redistribute: true, Strategy: s} }

// Policy decides when — and with which strategy — to redistribute
// particles.
type Policy interface {
	// Decide is called after iteration iter completes in iterTime
	// (simulated seconds, max over ranks) and returns the layout decision
	// for the next iteration.
	Decide(iter int, iterTime float64) Decision
	// NotifyRedistribution records that a redistribution completed at
	// iteration iter, costing redistTime. It is NOT called for failed,
	// rolled-back redistributions — policy state must stay as if the
	// attempt never happened, so the trigger retries.
	NotifyRedistribution(iter int, redistTime float64)
	// Name identifies the policy for reports.
	Name() string
}

// Factory creates one policy instance per rank; instances must be
// deterministic so ranks stay in agreement.
type Factory func() Policy

// Static never redistributes.
type Static struct{}

// Decide implements Policy.
func (Static) Decide(int, float64) Decision { return KeepLayout }

// NotifyRedistribution implements Policy.
func (Static) NotifyRedistribution(int, float64) {}

// Name implements Policy.
func (Static) Name() string { return "static" }

// NewStatic returns a Factory for Static.
func NewStatic() Factory { return func() Policy { return Static{} } }

// Periodic redistributes every K iterations, always with its configured
// Strategy (zero value: equal-count Lagrangian, the paper's scheme).
type Periodic struct {
	K        int
	Strategy Strategy
}

// Decide implements Policy.
func (p *Periodic) Decide(iter int, _ float64) Decision {
	if p.K > 0 && (iter+1)%p.K == 0 {
		return Rebalance(p.Strategy)
	}
	return KeepLayout
}

// NotifyRedistribution implements Policy.
func (p *Periodic) NotifyRedistribution(int, float64) {}

// Name implements Policy.
func (p *Periodic) Name() string { return fmt.Sprintf("periodic(%d)", p.K) }

// SetStrategy fixes the strategy every firing decides (see WithStrategy).
func (p *Periodic) SetStrategy(s Strategy) { p.Strategy = s }

// NewPeriodic returns a Factory for Periodic with period k.
func NewPeriodic(k int) Factory { return func() Policy { return &Periodic{K: k} } }

// Dynamic is the SAR-style policy. Until the first redistribution its
// T_redistribution estimate is the cost of the initial particle
// distribution (reported via NotifyRedistribution at iteration −1 by the
// simulation driver). Every firing decides its configured Strategy (zero
// value: equal-count Lagrangian).
type Dynamic struct {
	Strategy Strategy

	i0      int     // iteration of last redistribution
	t0      float64 // iteration time observed right after it (0 = unseen)
	haveT0  bool
	tRedist float64 // measured cost of the previous redistribution
}

// Decide implements Policy: triggers when (t1−t0)·(i1−i0) ≥ T_redist.
// The decision is monotone in the measured iteration time — extra delay on
// t1 (network jitter) can only move the trigger earlier,
// never suppress it — and a non-positive measurement window (i1 ≤ i0, e.g.
// a caller replaying the redistribution iteration itself) never fires: it
// carries no degradation signal.
func (d *Dynamic) Decide(iter int, iterTime float64) Decision {
	if !d.haveT0 {
		// First iteration after a redistribution establishes the baseline.
		d.t0 = iterTime
		d.haveT0 = true
		return KeepLayout
	}
	window := iter - d.i0
	if window <= 0 {
		return KeepLayout
	}
	saved := (iterTime - d.t0) * float64(window)
	if saved >= d.tRedist && d.tRedist > 0 {
		return Rebalance(d.Strategy)
	}
	return KeepLayout
}

// NotifyRedistribution implements Policy.
func (d *Dynamic) NotifyRedistribution(iter int, redistTime float64) {
	d.i0 = iter
	d.haveT0 = false
	d.tRedist = redistTime
}

// Name implements Policy.
func (d *Dynamic) Name() string { return "dynamic" }

// SetStrategy fixes the strategy every firing decides (see WithStrategy).
func (d *Dynamic) SetStrategy(s Strategy) { d.Strategy = s }

// NewDynamic returns a Factory for Dynamic.
func NewDynamic() Factory { return func() Policy { return &Dynamic{} } }
