package policy

// Adaptive reruns the paper's Table 1 comparison as a live decision
// procedure: an inner when-trigger (SAR by default) decides *when* to
// redistribute, and a chooser callback — installed by the pipeline, which
// owns the cost ledger — scores the candidate strategies against measured
// per-cell costs to decide *which* layout to rebuild.
type Adaptive struct {
	// When is the inner trigger policy deciding the redistribution moments;
	// its own strategy field is ignored.
	When Policy

	chooser func(iter int, current Strategy) Strategy
	current Strategy
}

// NewAdaptive returns a Factory for Adaptive over the SAR dynamic trigger.
func NewAdaptive() Factory {
	return func() Policy { return &Adaptive{When: &Dynamic{}} }
}

// NewAdaptiveEvery returns a Factory for Adaptive over a Periodic(k)
// trigger — useful when the redistribution cadence should be fixed while
// the strategy still adapts.
func NewAdaptiveEvery(k int) Factory {
	return func() Policy { return &Adaptive{When: &Periodic{K: k}} }
}

// SetChooser installs the strategy-scoring callback. Without one, Adaptive
// keeps deciding its current strategy (initially equal-count).
// The chooser must be deterministic and cross-rank agreed — the pipeline's
// chooser derives everything from allgathered ledger state.
func (a *Adaptive) SetChooser(f func(iter int, current Strategy) Strategy) { a.chooser = f }

// Strategy returns the strategy of the latest decided rebuild.
func (a *Adaptive) Strategy() Strategy { return a.current }

// Decide implements Policy: the inner trigger decides when; the chooser
// decides what.
func (a *Adaptive) Decide(iter int, iterTime float64) Decision {
	if !a.When.Decide(iter, iterTime).Redistribute {
		return KeepLayout
	}
	if a.chooser != nil {
		a.current = a.chooser(iter, a.current)
	}
	return Rebalance(a.current)
}

// NotifyRedistribution implements Policy: forwards to the inner trigger.
func (a *Adaptive) NotifyRedistribution(iter int, redistTime float64) {
	a.When.NotifyRedistribution(iter, redistTime)
}

// Name implements Policy.
func (a *Adaptive) Name() string { return "adaptive(" + a.When.Name() + ")" }

// UsesCostWeights implements CostWeightUser: the chooser scores every
// candidate layout from the ledger, so observation must always run.
func (a *Adaptive) UsesCostWeights() bool { return true }
