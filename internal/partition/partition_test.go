package partition

import (
	"testing"

	"picpar/internal/geom"
	"picpar/internal/mesh"
	"picpar/internal/mesh3"
	"picpar/internal/particle"
	"picpar/internal/sfc"
)

// setup returns a Hilbert-ordered 16-rank geometry over a 32×32 mesh and n
// particles of dist on it.
func setup(t *testing.T, dist string, n int) (*geom.G2, *particle.Store) {
	t.Helper()
	ge := hilbert2(t, sfc.SchemeHilbert)
	s, err := particle.Generate(particle.Config{
		N: n, Lx: ge.G.Lx, Ly: ge.G.Ly, Distribution: dist, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ge, s
}

// hilbert2 returns the 16-rank geometry over a 32×32 mesh whose tiles and
// particle keys both follow scheme.
func hilbert2(t *testing.T, scheme string) *geom.G2 {
	t.Helper()
	g := mesh.NewGrid(32, 32)
	d, err := mesh.NewDistOrdered(g, 16, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return geom.New2(g, d, sfc.MustNew(scheme, g.Nx, g.Ny))
}

// TestAssignKeysMatchesIndexer: BuildIndependent leaves every particle's
// key at the SFC index of its cell.
func TestAssignKeysMatchesIndexer(t *testing.T) {
	ge, s := setup(t, particle.DistUniform, 500)
	BuildIndependent(ge, s)
	for i := 0; i < s.Len(); i++ {
		cx, cy := ge.G.CellOf(s.X[i], s.Y[i])
		if s.Key[i] != float64(ge.Ix.Index(cx, cy)) {
			t.Fatalf("particle %d key %g != index %d", i, s.Key[i], ge.Ix.Index(cx, cy))
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyGrid.String() != "grid" || StrategyParticle.String() != "particle" ||
		StrategyIndependent.String() != "independent" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() != "strategy(9)" {
		t.Error("unknown strategy name")
	}
}

func TestBuildGridStrategy(t *testing.T) {
	ge, s := setup(t, particle.DistIrregular, 4000)
	g, d := ge.G, ge.D
	l, err := Build(StrategyGrid, ge, s)
	if err != nil {
		t.Fatal(err)
	}
	// Grid points follow BLOCK exactly.
	for cy := 0; cy < g.Ny; cy++ {
		for cx := 0; cx < g.Nx; cx++ {
			if l.Points[g.PointIndex(cx, cy)] != d.OwnerOfPoint(cx, cy) {
				t.Fatalf("point (%d,%d) owner mismatch", cx, cy)
			}
		}
	}
	// Particles follow their cell.
	for i := 0; i < s.Len(); i++ {
		cx, cy := g.CellOf(s.X[i], s.Y[i])
		if l.Particles[i] != d.OwnerOfPoint(cx, cy) {
			t.Fatalf("particle %d not with its cell", i)
		}
	}
	q := Measure(ge, l, s, nil)
	// Grid partitioning of an irregular distribution: grid balanced,
	// particles badly unbalanced, and all communication local.
	if q.GridImbalance > 1.01 {
		t.Errorf("grid imbalance %g, want ~1", q.GridImbalance)
	}
	if q.ParticleImbalance < 2 {
		t.Errorf("particle imbalance %g, want >> 1 for a centre-concentrated blob", q.ParticleImbalance)
	}
	if q.NonLocalFraction > 0.01 {
		t.Errorf("grid strategy must communicate locally, non-local %g", q.NonLocalFraction)
	}
}

func TestBuildParticleStrategy(t *testing.T) {
	ge, s := setup(t, particle.DistIrregular, 4000)
	l, err := Build(StrategyParticle, ge, s)
	if err != nil {
		t.Fatal(err)
	}
	q := Measure(ge, l, s, nil)
	// Particle partitioning: particles balanced, grid unbalanced.
	// Splits happen at whole-key (cell) granularity, so with ~4 particles
	// per cell the counts can be off by a cell's worth.
	if q.ParticleImbalance > 1.3 {
		t.Errorf("particle imbalance %g, want ~1", q.ParticleImbalance)
	}
	if q.GridImbalance < 2 {
		t.Errorf("grid imbalance %g, want >> 1", q.GridImbalance)
	}
	// Every rank holds some particles.
	counts := make([]int, ge.Ranks())
	for _, r := range l.Particles {
		if r < 0 || r >= ge.Ranks() {
			t.Fatalf("particle assigned to invalid rank %d", r)
		}
		counts[r]++
	}
	for r, c := range counts {
		if c == 0 {
			t.Errorf("rank %d holds no particles", r)
		}
	}
}

func TestBuildIndependentStrategy(t *testing.T) {
	ge, s := setup(t, particle.DistIrregular, 4000)
	l, err := Build(StrategyIndependent, ge, s)
	if err != nil {
		t.Fatal(err)
	}
	q := Measure(ge, l, s, nil)
	// Independent: both balanced.
	if q.ParticleImbalance > 1.1 {
		t.Errorf("particle imbalance %g", q.ParticleImbalance)
	}
	if q.GridImbalance > 1.01 {
		t.Errorf("grid imbalance %g", q.GridImbalance)
	}
}

func TestIndependentUniformMostlyLocal(t *testing.T) {
	// With a near-uniform distribution, SFC alignment makes particle and
	// mesh subdomains overlap, so ghost traffic is mostly between nearby
	// ranks.
	ge, s := setup(t, particle.DistUniform, 8000)
	l, err := Build(StrategyIndependent, ge, s)
	if err != nil {
		t.Fatal(err)
	}
	q := Measure(ge, l, s, nil)
	if q.NonLocalFraction > 0.35 {
		t.Errorf("uniform independent partition should be mostly local, non-local %g", q.NonLocalFraction)
	}
}

func TestIndependentIrregularNonLocalExceedsUniform(t *testing.T) {
	// Table 1: independent partitioning pays with non-local communication
	// when the distribution is irregular.
	ge, su := setup(t, particle.DistUniform, 8000)
	lu, _ := Build(StrategyIndependent, ge, su)
	qu := Measure(ge, lu, su, nil)

	_, si := setup(t, particle.DistIrregular, 8000)
	li, _ := Build(StrategyIndependent, ge, si)
	qi := Measure(ge, li, si, nil)

	if qi.NonLocalFraction <= qu.NonLocalFraction {
		t.Errorf("irregular non-local (%g) should exceed uniform (%g)",
			qi.NonLocalFraction, qu.NonLocalFraction)
	}
}

func TestHilbertGhostsBeatSnakeOnUniform(t *testing.T) {
	// Section 5.1 / Table 2 premise: Hilbert-ordered particle subdomains
	// are more compact, touching fewer off-processor grid points.
	hil, s := setup(t, particle.DistUniform, 8000)
	snk := hilbert2(t, sfc.SchemeSnake)
	lh, _ := Build(StrategyIndependent, hil, s)
	ls, _ := Build(StrategyIndependent, snk, s)
	qh := Measure(hil, lh, s, nil)
	qs := Measure(snk, ls, s, nil)
	if qh.TotalGhostPoints >= qs.TotalGhostPoints {
		t.Errorf("hilbert ghosts %d should beat snake %d", qh.TotalGhostPoints, qs.TotalGhostPoints)
	}
}

func TestMeasureEmptyStore(t *testing.T) {
	ge, _ := setup(t, particle.DistUniform, 0)
	s := particle.NewStore(0, -1, 1)
	l, err := Build(StrategyIndependent, ge, s)
	if err != nil {
		t.Fatal(err)
	}
	q := Measure(ge, l, s, nil)
	if q.MaxGhostPoints != 0 || q.TotalGhostPoints != 0 {
		t.Errorf("empty store has ghosts: %+v", q)
	}
	if q.ParticleImbalance != 1 {
		t.Errorf("empty imbalance %g, want 1 by convention", q.ParticleImbalance)
	}
}

func TestPartitionEvolutionDegradesLagrangian(t *testing.T) {
	// Table 1 "after a few iterations" row for direct Lagrangian: keep the
	// assignment fixed, drift the particles, and the ghost count grows.
	ge, s := setup(t, particle.DistUniform, 6000)
	l, err := Build(StrategyIndependent, ge, s)
	if err != nil {
		t.Fatal(err)
	}
	q0 := Measure(ge, l, s, nil)
	// Drift: move every particle diagonally by a few cells (Lagrangian:
	// assignment stays).
	for i := 0; i < s.Len(); i++ {
		s.X[i], s.Y[i] = ge.G.WrapPosition(s.X[i]+3.3, s.Y[i]+2.1)
	}
	q1 := Measure(ge, l, s, nil)
	if q1.TotalGhostPoints <= q0.TotalGhostPoints {
		t.Errorf("drift should increase ghosts: %d -> %d", q0.TotalGhostPoints, q1.TotalGhostPoints)
	}
	// Rebuilding the partition (redistribution) restores compactness.
	l2, err := Build(StrategyIndependent, ge, s)
	if err != nil {
		t.Fatal(err)
	}
	q2 := Measure(ge, l2, s, nil)
	if q2.TotalGhostPoints >= q1.TotalGhostPoints {
		t.Errorf("redistribution should reduce ghosts: %d -> %d", q1.TotalGhostPoints, q2.TotalGhostPoints)
	}
}

func TestBuildUnknownStrategy(t *testing.T) {
	ge, s := setup(t, particle.DistUniform, 10)
	if _, err := Build(Strategy(42), ge, s); err == nil {
		t.Error("expected error for unknown strategy")
	}
}

// TestMeasurePinned pins Measure to the qualities its two predecessors
// reported for the same layouts: the 2-D Table 1 measure for the three
// strategies on two populations, and the geometry-generic weighted measure
// for a 3-D spike under cell weights.
func TestMeasurePinned(t *testing.T) {
	want := map[string]Quality{
		"irregular/grid":        {ParticleImbalance: 4.148, GridImbalance: 1, MaxGhostPoints: 17, TotalGhostPoints: 112, MaxPartners: 3, NonLocalFraction: 0, WeightedImbalance: 4.148},
		"irregular/particle":    {ParticleImbalance: 1.136, GridImbalance: 4.5625, MaxGhostPoints: 20, TotalGhostPoints: 152, MaxPartners: 4, NonLocalFraction: 0.14473684210526316, WeightedImbalance: 1.136},
		"irregular/independent": {ParticleImbalance: 1, GridImbalance: 1, MaxGhostPoints: 86, TotalGhostPoints: 491, MaxPartners: 5, NonLocalFraction: 0.028513238289205704, WeightedImbalance: 1},
		"uniform/grid":          {ParticleImbalance: 1.128, GridImbalance: 1, MaxGhostPoints: 17, TotalGhostPoints: 271, MaxPartners: 3, NonLocalFraction: 0, WeightedImbalance: 1.128},
		"uniform/particle":      {ParticleImbalance: 1.02, GridImbalance: 1.140625, MaxGhostPoints: 22, TotalGhostPoints: 302, MaxPartners: 6, NonLocalFraction: 0, WeightedImbalance: 1.02},
		"uniform/independent":   {ParticleImbalance: 1, GridImbalance: 1, MaxGhostPoints: 31, TotalGhostPoints: 339, MaxPartners: 5, NonLocalFraction: 0, WeightedImbalance: 1},
		"3d/weighted":           {ParticleImbalance: 1.448, GridImbalance: 1.125, MaxGhostPoints: 865, TotalGhostPoints: 1827, MaxPartners: 11, NonLocalFraction: 0, WeightedImbalance: 1.0021978021978022},
	}
	for _, dist := range []string{particle.DistIrregular, particle.DistUniform} {
		ge, s := setup(t, dist, 4000)
		for _, st := range []Strategy{StrategyGrid, StrategyParticle, StrategyIndependent} {
			l, err := Build(st, ge, s)
			if err != nil {
				t.Fatal(err)
			}
			name := dist + "/" + st.String()
			if got := Measure(ge, l, s, nil); got != want[name] {
				t.Errorf("%s: got %+v\nwant %+v", name, got, want[name])
			}
		}
	}

	g := mesh3.NewGrid(16, 12, 8)
	d, err := mesh3.NewDistOrdered(g, 12, sfc.SchemeHilbert)
	if err != nil {
		t.Fatal(err)
	}
	ge := geom.New3(g, d, d.Cells)
	s, err := particle.Generate(particle.Config{N: 6000, Lx: g.Lx, Ly: g.Ly, Lz: g.Lz,
		Distribution: particle.DistSpike, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wf := func(k uint64) float64 { return float64(1 + k%7) }
	if got := Measure(ge, BuildIndependentWeighted(ge, s, wf), s, wf); got != want["3d/weighted"] {
		t.Errorf("3d/weighted: got %+v\nwant %+v", got, want["3d/weighted"])
	}
}
