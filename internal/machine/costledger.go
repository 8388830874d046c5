package machine

import "fmt"

// CostLedger attributes measured per-iteration particle-phase cost to the
// cells the particles occupied, maintaining an exponentially-decayed
// estimate of each cell's cost and population. It is the data source for
// cost-weighted partitioning: cost[c]/count[c] estimates the per-particle
// cost of cell c, which sparse regions (whose ranks straddle many mesh
// blocks and pay more ghost traffic per particle) see higher than dense
// ones.
//
// The ledger sits behind the Clock seam in the sense that it only ever
// consumes modelled charges (already aggregated by the caller from the
// Stats phase deltas) — it never reads wall-clock time, so its contents
// are deterministic and invariant under the shared-memory worker count.
// All storage is preallocated at construction and reused: ObserveN/Commit
// allocate nothing in steady state (touched has capacity for every cell).
type CostLedger struct {
	alpha     float64   // decay weight of the newest iteration
	cost      []float64 // decayed per-cell cost estimate
	count     []float64 // decayed per-cell particle count
	counts    []int32   // current-iteration population scratch
	units     []int64   // current-iteration work-unit scratch
	touched   []int32   // cells with counts[c] != 0, for sparse reset
	seen      int       // particles observed since the last Commit
	seenUnits int64     // work units observed since the last Commit
}

// DefaultLedgerDecay is the weight Commit gives the newest iteration: high
// enough to track a collapsing density within a few redistribution
// periods, low enough to smooth single-iteration jitter.
const DefaultLedgerDecay = 0.3

// NewCostLedger builds a ledger over `cells` cells. alpha in (0, 1] is the
// exponential-decay weight of the newest observation; out-of-range values
// select DefaultLedgerDecay.
func NewCostLedger(cells int, alpha float64) *CostLedger {
	if !(alpha > 0 && alpha <= 1) {
		alpha = DefaultLedgerDecay
	}
	return &CostLedger{
		alpha:   alpha,
		cost:    make([]float64, cells),
		count:   make([]float64, cells),
		counts:  make([]int32, cells),
		units:   make([]int64, cells),
		touched: make([]int32, 0, cells),
	}
}

// Cells returns the ledger's cell-space size.
func (l *CostLedger) Cells() int { return len(l.cost) }

// ObserveN records one particle in cell c performing `units` units of
// modelled work this iteration (e.g. base phase work plus its share of
// off-processor ghost operations). Commit apportions the measured cost
// proportionally to units, so cells whose particles are intrinsically more
// expensive — not merely more numerous — carry higher estimates.
// Non-positive units count as 1; out-of-range cells are ignored.
func (l *CostLedger) ObserveN(c, units int) {
	if c < 0 || c >= len(l.counts) {
		return
	}
	if units <= 0 {
		units = 1
	}
	if l.counts[c] == 0 {
		l.touched = append(l.touched, int32(c))
	}
	l.counts[c]++
	l.units[c] += int64(units)
	l.seen++
	l.seenUnits += int64(units)
}

// Commit folds the iteration's observations into the decayed estimates,
// attributing the iteration's total particle-phase cost proportionally to
// each cell's observed work units (uniform per particle when every
// observation carried one unit). Resets the per-iteration
// scratch.
func (l *CostLedger) Commit(cost float64) {
	keep := 1 - l.alpha
	for c := range l.cost {
		l.cost[c] *= keep
		l.count[c] *= keep
	}
	if l.seenUnits > 0 {
		perUnit := cost / float64(l.seenUnits)
		for _, c := range l.touched {
			l.cost[c] += float64(l.alpha * perUnit * float64(l.units[c]))
			l.count[c] += float64(l.alpha * float64(l.counts[c]))
			l.counts[c] = 0
			l.units[c] = 0
		}
	}
	l.touched = l.touched[:0]
	l.seen = 0
	l.seenUnits = 0
}

// Export appends the decayed cost estimates followed by the decayed counts
// (2·Cells values) to dst and returns it — the wire form the pipeline
// allgathers to build a global per-cell weight table.
func (l *CostLedger) Export(dst []float64) []float64 {
	dst = append(dst, l.cost...)
	return append(dst, l.count...)
}

// Import restores the decayed estimates from a previous Export (2·Cells
// values: costs then counts) and discards any uncommitted per-iteration
// observations — the checkpoint-restore inverse of Export.
func (l *CostLedger) Import(src []float64) error {
	if len(src) != 2*len(l.cost) {
		return fmt.Errorf("machine: ledger import of %d values into %d cells (want %d)",
			len(src), len(l.cost), 2*len(l.cost))
	}
	copy(l.cost, src[:len(l.cost)])
	copy(l.count, src[len(l.cost):])
	for _, c := range l.touched {
		l.counts[c] = 0
		l.units[c] = 0
	}
	l.touched = l.touched[:0]
	l.seen = 0
	l.seenUnits = 0
	return nil
}
