package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/pic"
	"picpar/internal/policy"
)

// StrategyCell is one (dims, strategy) measurement of the layout-strategy
// comparison on the skewed spike workload.
type StrategyCell struct {
	Dims     int
	Strategy string // "equal-count", "cost-weighted" or "adaptive"
	// BusyImbalance is the mean over settled iterations of the per-rank
	// busy-time max/mean (1.0 = perfectly balanced).
	BusyImbalance float64
	// TotalTime is the end-to-end simulated time, redistributions included.
	TotalTime float64
	// Redistributions counts successful redistributions; ByStrategy breaks
	// them down per chosen layout (interesting under the adaptive policy).
	Redistributions int
	ByStrategy      map[string]int
}

// StrategyResult holds the comparison's measurements.
type StrategyResult struct {
	Cells []StrategyCell
}

// Strategies compares the particle layout strategies on the spike
// distribution — a dense Gaussian clump over a sparse background, the
// workload where per-particle cost is genuinely heterogeneous (background
// particles straddle mesh blocks and pay more ghost traffic each). It runs
// equal-count and cost-weighted splits under the same periodic cadence,
// plus the adaptive policy choosing from the live cost ledger, in 2-D and
// 3-D. The headline numbers: cost-weighted cuts the per-rank busy-time
// imbalance the equal-count split leaves on the table, and the adaptive
// policy discovers that on its own (its redistributions land on
// cost-weighted), at the price of some extra total traffic from the
// misaligned split — the balance-versus-locality trade-off.
func Strategies(w io.Writer, quick bool) *StrategyResult {
	n := 4096
	iters2, iters3 := 60, 40
	if quick {
		iters2, iters3 = 30, 20
	}
	const p = 8
	const period = 5

	res := &StrategyResult{}
	fmt.Fprintf(w, "Layout strategies (measured): spike distribution, %d particles, %d ranks\n", n, p)
	fmt.Fprintf(w, "%-5s %-14s %9s %10s %8s  %s\n",
		"dims", "policy", "busyImb", "totalTime", "redists", "byStrategy")
	hr(w, 72)

	specs := []struct {
		name string
		pol  func() policy.Factory
	}{
		{"equal-count", func() policy.Factory {
			return policy.WithStrategy(policy.NewPeriodic(period), policy.EqualCount)
		}},
		{"cost-weighted", func() policy.Factory {
			return policy.WithStrategy(policy.NewPeriodic(period), policy.CostWeighted)
		}},
		{"adaptive", func() policy.Factory { return policy.NewAdaptiveEvery(period) }},
	}

	for _, dims := range []int{2, 3} {
		iters := iters2
		if dims == 3 {
			iters = iters3
		}
		for _, spec := range specs {
			cfg := pic.Config{
				Dims:         dims,
				P:            p,
				NumParticles: n,
				Distribution: particle.DistSpike,
				Seed:         11,
				Iterations:   iters,
				Policy:       spec.pol(),
			}
			if dims == 2 {
				cfg.Grid = grid(128, 64)
			} else {
				cfg.Grid3 = mesh.NewGrid3(16, 16, 16)
			}
			r := run(cfg)
			cell := StrategyCell{
				Dims:            dims,
				Strategy:        spec.name,
				BusyImbalance:   meanBusyImbalance(r, iters/3),
				TotalTime:       r.TotalTime,
				Redistributions: r.NumRedistributions,
				ByStrategy:      r.RedistByStrategy,
			}
			res.Cells = append(res.Cells, cell)
			fmt.Fprintf(w, "%-5d %-14s %9.4f %10.4f %8d  %s\n",
				dims, spec.name, cell.BusyImbalance, cell.TotalTime,
				cell.Redistributions, formatByStrategy(cell.ByStrategy))
		}
	}
	return res
}

// meanBusyImbalance averages the per-iteration busy-time imbalance over the
// settled tail of the run (after `warmup` iterations), skipping iterations
// a redistribution perturbed.
func meanBusyImbalance(r *pic.Result, warmup int) float64 {
	sum, n := 0.0, 0
	for i := warmup; i < len(r.Records); i++ {
		sum += r.Records[i].BusyImbalance
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// formatByStrategy renders the per-strategy redistribution counts in a
// stable order.
func formatByStrategy(m map[string]int) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", k, m[k])
	}
	return s
}

// Find locates a cell.
func (r *StrategyResult) Find(dims int, strategy string) *StrategyCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Dims == dims && c.Strategy == strategy {
			return c
		}
	}
	return nil
}

// WriteCSV exports the comparison.
func (r *StrategyResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, c := range r.Cells {
		rows = append(rows, []string{
			strconv.Itoa(c.Dims), c.Strategy, f(c.BusyImbalance),
			f(c.TotalTime), strconv.Itoa(c.Redistributions), formatByStrategy(c.ByStrategy),
		})
	}
	return writeCSV(w, []string{"dims", "strategy", "busy_imbalance",
		"total_time", "redistributions", "by_strategy"}, rows)
}
