package geom

import (
	"slices"
	"testing"

	"picpar/internal/commopt"
	"picpar/internal/field"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/sfc"
)

// rank0Share generates n uniform particles over ge's domain and returns a
// quarter of them: what rank 0 of a P=4 run holds. Sorted, it is the
// quarter from sixteenth from on along ge's curve: at 0 the first quarter,
// as after an equal-count balance, with most of it inside rank 0's block
// and the particles on its faces on the per-vertex path; at 3 a contiguous
// key range straddling blocks, as after cost-weighted cuts that miss them,
// with three in four particles in rank 1's block and each cell's in one run.
// Unsorted, it is the first quarter in generation order, spread over the
// whole domain: three in four particles lie in other ranks' blocks, and
// no two neighbours share a cell.
func rank0Share(b *testing.B, ge Geometry, n int, sorted bool, from int) *particle.Store {
	s, err := ge.Generate(GenConfig{N: n, Distribution: particle.DistUniform, Seed: 11, Thermal: 0.1, Charge: -1})
	if err != nil {
		b.Fatal(err)
	}
	ge.AssignKeys(s)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if sorted {
		slices.SortStableFunc(idx, func(a, c int) int {
			return int(s.Key[a] - s.Key[c])
		})
	}
	out := ge.NewStore(n/4, s.Charge, s.Mass)
	out.AppendIndices(s, idx[from*n/16:from*n/16+n/4])
	return out
}

// BenchmarkRangeKernels times Deposit, GatherPush and ObserveCosts on rank
// 0 of a P=4 Hilbert-ordered run — the 2-D 256×128 mesh with 262 144
// particles, the 3-D 32³ mesh with 16 384 — for the aligned, the
// misaligned and the sorted-misaligned share, and reports ns per
// particle. RefObserve is the per-vertex walk ObserveCosts replaced
// (refObserve, the test oracle).
func BenchmarkRangeKernels(b *testing.B) {
	g2, g3 := mesh.NewGrid(256, 128), mesh.NewGrid3(32, 32, 32)
	d2, err2 := mesh.NewDistOrdered(g2, 4, sfc.SchemeHilbert)
	ix2, err3 := sfc.New(sfc.SchemeHilbert, g2.Nx, g2.Ny)
	d3, err4 := mesh.NewDistOrdered(g3, 4, sfc.SchemeHilbert)
	ix3, err5 := sfc.New3(sfc.SchemeHilbert, g3.Nx, g3.Ny, g3.Nz)
	for _, err := range []error{err2, err3, err4, err5} {
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		ge   Geometry
		n    int
	}{
		{"2d-256x128", New2(g2, d2, ix2), 262144},
		{"3d-32x32x32", New3(g3, d3, ix3), 16384},
	} {
		for _, share := range []struct {
			name   string
			sorted bool
			from   int
		}{{"", true, 0}, {"/misaligned", false, 0}, {"/sorted-misaligned", true, 3}} {
			name := c.name + share.name
			s := rank0Share(b, c.ge, c.n, share.sorted, share.from)
			f := c.ge.NewFields(0, nil)
			table := commopt.NewDirectTable(c.ge.NumPoints())
			var gv []float64
			deposit := func() {
				table.Reset()
				gv = gv[:0]
				c.ge.Deposit(s, 0, s.Len(), f, table, &gv)
			}
			perParticle := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns/particle")
			}
			b.Run(name+"/Deposit", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					deposit()
				}
				perParticle(b)
			})
			deposit()
			ghostEB := make([]float64, 6*table.Len())
			b.Run(name+"/GatherPush", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.ge.GatherPush(s, 0, s.Len(), f, table, ghostEB, 0)
				}
				perParticle(b)
			})
			led := machine.NewCostLedger(c.ge.NumCells(), machine.DefaultLedgerDecay)
			for _, o := range []struct {
				name    string
				observe func(Geometry, *particle.Store, int, int, *field.Local, *machine.CostLedger, int, int)
			}{{"ObserveCosts", Geometry.ObserveCosts}, {"RefObserve", refObserve}} {
				b.Run(name+"/"+o.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						o.observe(c.ge, s, 0, s.Len(), f, led, 40, 7)
						led.Commit(1)
					}
					perParticle(b)
				})
			}
		}
	}
}
