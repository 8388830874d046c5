// The cost-attribution half of strategy selection: every iteration's
// measured per-particle phase costs are booked onto the cells the
// particles occupy (machine.CostLedger), the decayed estimates are
// synchronised across ranks on demand, and the Adaptive policy's chooser
// scores the candidate layouts from them — the paper's Table 1 run as a
// live decision procedure instead of an a-priori classification.

package pic

import (
	"picpar/internal/comm"
	"picpar/internal/machine"
	"picpar/internal/policy"
	"picpar/internal/pusher"
	"picpar/internal/wire"
)

// ghostVertexWork approximates the δ units one off-processor footprint
// vertex adds beyond the duplicate-table operation: its share of the ghost
// marshalling, owner-side accumulation and gather reply.
const ghostVertexWork = 6

// ledger returns the rank's cost ledger, building it on first use.
func (st *rankState) ledger() *machine.CostLedger {
	if st.led == nil {
		st.led = machine.NewCostLedger(st.ge.NumCells(), machine.DefaultLedgerDecay)
	}
	return st.led
}

// observeCosts books one iteration's per-particle phase costs — scatter
// and gather/push, computation plus ghost communication — onto the cells
// the particles currently occupy, weighted by each particle's modelled
// work: base phase work plus the off-processor ghost operations its
// footprint incurs. That weighting is what lets the ledger tell expensive
// cells (depositing across a block boundary) from merely populous ones.
// Pure local bookkeeping on the out-of-band ledger: nothing is charged to
// the simulated machine, so the default pipeline's timings are untouched.
func (st *rankState) observeCosts(diff *machine.Stats) {
	sc := &diff.Phases[machine.PhaseScatter]
	ga := &diff.Phases[machine.PhaseGather]
	pu := &diff.Phases[machine.PhasePush]
	cost := sc.ComputeTime + sc.CommTime +
		ga.ComputeTime + ga.CommTime +
		pu.ComputeTime + pu.CommTime
	nv := st.ge.NumVertices()
	base := nv*(pusher.ScatterWorkPerVertex+pusher.GatherWorkPerVertex) + pusher.PushWorkPerParticle
	led := st.ledger()
	st.ge.ObserveCosts(st.store, 0, st.store.Len(), st.fields, led, base, st.table.CostPerOp()+ghostVertexWork)
	led.Commit(cost)
}

// syncWeights synchronises the cost ledgers: every rank's decayed per-cell
// (cost, count) estimates are allgathered and summed in rank order, so all
// ranks derive bit-identical global estimates; the allgather result then
// goes back to the wire pool. The exchange is charged to the caller's
// current phase — it only ever runs on the cost-weighted or adaptive
// paths, never under the default strategies.
func (st *rankState) syncWeights() {
	led := st.ledger()
	nc := led.Cells()
	st.ledgerBuf = led.Export(st.ledgerBuf[:0])
	all := comm.AllgatherFloat64s(st.r, st.ledgerBuf)
	if cap(st.gW) < nc {
		st.gW = make([]float64, nc)
		st.gN = make([]float64, nc)
	}
	st.gW, st.gN = st.gW[:nc], st.gN[:nc]
	for c := range st.gW {
		st.gW[c], st.gN[c] = 0, 0
	}
	stride := 2 * nc
	for k := 0; k < st.r.Size(); k++ {
		base := k * stride
		for c := 0; c < nc; c++ {
			st.gW[c] += all[base+c]
			st.gN[c] += all[base+nc+c]
		}
	}
	wire.Put(all)
}

// particleWeightFn synchronises the ledgers and returns the per-particle
// weight function driving the cost-weighted split: a particle in cell c
// weighs the cell's estimated cost per particle. Cells without
// observations fall back to the global mean so they still count one
// particle's worth of work. With no observations at all it returns nil,
// which the weighted balance treats as the equal-count split.
func (st *rankState) particleWeightFn() func(key float64) float64 {
	st.syncWeights()
	totW, totN := 0.0, 0.0
	for c := range st.gW {
		totW += st.gW[c]
		totN += st.gN[c]
	}
	if totW <= 0 || totN <= 0 {
		return nil
	}
	st.pwMean = totW / totN
	nc := len(st.gW)
	if cap(st.pw) < nc {
		st.pw = make([]float64, nc)
	}
	st.pw = st.pw[:nc]
	for c := range st.pw {
		if st.gN[c] > 1e-12 && st.gW[c] > 0 {
			st.pw[c] = st.gW[c] / st.gN[c]
		} else {
			st.pw[c] = st.pwMean
		}
	}
	if st.pwFn == nil {
		st.pwFn = func(key float64) float64 {
			c := int(key)
			if c < 0 || c >= len(st.pw) {
				return st.pwMean
			}
			return st.pw[c]
		}
	}
	return st.pwFn
}

// strategyHysteresis is the margin a candidate layout's estimated max
// per-rank cost must undercut the current one's by before the adaptive
// chooser switches — scores drift with the decayed estimates, and
// rebuilding the layout is never free. Flapping between the Lagrangian
// splits is structurally impossible (the equal-count score is a max over
// chunks and so never drops below the cost-weighted score, the mean), so
// the margin mainly keeps noise from selecting Eulerian migration.
const strategyHysteresis = 0.98

// chooseStrategy is the Adaptive policy's chooser: it synchronises the
// cost ledgers and compares the candidate layouts' estimated max per-rank
// iteration cost. Every rank computes identical scores from the identical
// world-summed estimates, so the choice needs no extra agreement round.
// The ledger exchange is charged to the redistribution phase: deciding how
// to redistribute is part of redistributing.
func (st *rankState) chooseStrategy(iter int, current policy.Strategy) policy.Strategy {
	r := st.r
	prev := r.Stats().CurrentPhase()
	r.SetPhase(machine.PhaseRedistribute)
	defer r.SetPhase(prev)

	st.syncWeights()
	totW := 0.0
	for _, w := range st.gW {
		totW += w
	}
	if totW <= 0 {
		return current
	}
	p := r.Size()
	cands := [...]policy.Strategy{policy.EqualCount, policy.CostWeighted, policy.Eulerian}
	scores := [...]float64{
		splitCost(st.gW, st.gN, p), // equal-count: cuts at equal particle counts
		totW / float64(p),          // cost-weighted: cuts at equal cumulative cost
		st.eulerianCost(),          // Eulerian: the mesh's BLOCK owners as-is
	}
	cur := totW // a non-candidate current scores worst-case
	for i := range cands {
		if cands[i] == current {
			cur = scores[i]
		}
	}
	best, bestScore := current, cur
	for i := range cands {
		if scores[i] < bestScore {
			best, bestScore = cands[i], scores[i]
		}
	}
	if bestScore < strategyHysteresis*cur {
		return best
	}
	return current
}

// splitCost estimates the max per-rank cost of the equal-count split: the
// cumulative cost, piecewise linear in cumulative particle count along the
// SFC cell order, evaluated at the p equal-count cut targets.
func splitCost(gW, gN []float64, p int) float64 {
	totN, totW := 0.0, 0.0
	for c := range gN {
		totN += gN[c]
		totW += gW[c]
	}
	if totN <= 0 || totW <= 0 {
		return 0
	}
	maxChunk, prevW := 0.0, 0.0
	cumN, cumW := 0.0, 0.0
	c := 0
	for k := 1; k < p; k++ {
		target := totN * float64(k) / float64(p)
		for c < len(gN) && cumN+gN[c] < target {
			cumN += gN[c]
			cumW += gW[c]
			c++
		}
		wAt := cumW
		if c < len(gN) && gN[c] > 0 {
			wAt += (target - cumN) * gW[c] / gN[c]
		}
		if chunk := wAt - prevW; chunk > maxChunk {
			maxChunk = chunk
		}
		prevW = wAt
	}
	if chunk := totW - prevW; chunk > maxChunk {
		maxChunk = chunk
	}
	return maxChunk
}

// eulerianCost estimates the max per-rank cost of the Eulerian layout:
// every cell's estimated cost lands on the mesh rank owning it.
func (st *rankState) eulerianCost() float64 {
	st.loads = append(st.loads[:0], make([]float64, st.r.Size())...)
	loads := st.loads
	for c := range st.gW {
		if o := st.ge.CellOwner(uint64(c)); o >= 0 && o < len(loads) {
			loads[o] += st.gW[c]
		}
	}
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}
