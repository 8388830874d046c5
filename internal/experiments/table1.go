package experiments

import (
	"fmt"
	"io"

	"picpar/internal/geom"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/partition"
	"picpar/internal/sfc"
)

// Table1Row quantifies one (strategy, movement, epoch) cell of the paper's
// Table 1.
type Table1Row struct {
	Strategy partition.Strategy
	Movement string // "eulerian" or "lagrangian"
	Epoch    string // "initial" or "evolved"
	Quality  partition.Quality
}

// Table1Result holds all measured rows.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 reproduces Table 1 as measured numbers: for each of the three
// partitioning strategies it reports the field-solve and particle load
// imbalance and the communication character (ghost volume, locality), at
// the initial irregular distribution and after the system has evolved —
// under Eulerian movement (particles reassigned to follow their cells /
// groups) and Lagrangian movement (assignment frozen).
func Table1(w io.Writer, quick bool) *Table1Result {
	n := 16384
	if quick {
		n = 4096
	}
	g := grid(64, 64)
	const p = 16
	d, err := mesh.NewDistOrdered(g, p, sfc.SchemeHilbert)
	if err != nil {
		panic(err)
	}
	ge := geom.New2(g, d, sfc.MustNew(sfc.SchemeHilbert, g.Nx, g.Ny))
	s, err := particle.Generate(particle.Config{
		N: n, Lx: g.Lx, Ly: g.Ly, Distribution: particle.DistIrregular, Seed: 21,
	})
	if err != nil {
		panic(err)
	}

	// Evolved positions: a diagonal drift plus spread, the qualitative
	// effect of several PIC iterations on a hot plasma.
	evolved := s.Clone()
	for i := 0; i < evolved.Len(); i++ {
		dx := 4.0 + 3.0*evolved.Px[i]/(0.05+abs(evolved.Px[i]))
		dy := 3.0 + 2.0*evolved.Py[i]/(0.05+abs(evolved.Py[i]))
		evolved.X[i], evolved.Y[i], _ = g.WrapPosition(evolved.X[i]+dx, evolved.Y[i]+dy, 0)
	}

	res := &Table1Result{}
	strategies := []partition.Strategy{partition.StrategyGrid, partition.StrategyParticle, partition.StrategyIndependent}

	fmt.Fprintf(w, "Table 1 (measured): partitioning strategies, irregular distribution, %d particles, %d ranks, %dx%d mesh\n", n, p, g.Nx, g.Ny)
	fmt.Fprintf(w, "%-12s %-10s %-9s %10s %10s %10s %9s %9s\n",
		"strategy", "movement", "epoch", "fieldImb", "partImb", "maxGhost", "partners", "nonlocal")
	hr(w, 86)

	record := func(st partition.Strategy, movement, epoch string, pos *particle.Store, l *partition.Layout) {
		q := partition.Measure(ge, l, pos, nil)
		res.Rows = append(res.Rows, Table1Row{Strategy: st, Movement: movement, Epoch: epoch, Quality: q})
		fmt.Fprintf(w, "%-12s %-10s %-9s %10.3f %10.3f %10d %9d %9.3f\n",
			st, movement, epoch, q.GridImbalance, q.ParticleImbalance,
			q.MaxGhostPoints, q.MaxPartners, q.NonLocalFraction)
	}

	for _, st := range strategies {
		l0, err := partition.Build(st, ge, s)
		if err != nil {
			panic(err)
		}
		record(st, "both", "initial", s, l0)
		// Eulerian: re-derive the assignment at the evolved positions.
		le, err := partition.Build(st, ge, evolved)
		if err != nil {
			panic(err)
		}
		record(st, "eulerian", "evolved", evolved, le)
		// Lagrangian: keep the initial assignment (cells keep their owner,
		// particles keep theirs).
		record(st, "lagrangian", "evolved", evolved, l0)
	}
	return res
}

// Row finds a recorded row.
func (t *Table1Result) Row(st partition.Strategy, movement, epoch string) *Table1Row {
	for i := range t.Rows {
		r := &t.Rows[i]
		if r.Strategy == st && r.Movement == movement && r.Epoch == epoch {
			return r
		}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
