package experiments

import (
	"fmt"
	"io"
	"strconv"

	"picpar/internal/geom"
	"picpar/internal/mesh3"
	"picpar/internal/particle"
	"picpar/internal/partition"
	"picpar/internal/sfc"
)

// NDCell is one (distribution, scheme, ranks) measurement of the 3-D
// partitioning analysis.
type NDCell struct {
	Distribution string
	Scheme       string
	P            int
	Quality      partition.Quality
}

// NDResult holds the 3-D generalisation measurements.
type NDResult struct {
	Cells []NDCell
}

// ND demonstrates the paper's "generalizes to n dimensions" claim through
// the unified geometry seam: Table 1's independent strategy
// (partition.BuildIndependent) and its one measurement (partition.Measure)
// run here over a 3-D geometry, showing that Hilbert-keyed equal-count particle
// chunks aligned with an SFC-numbered BLOCK distribution touch fewer
// off-processor grid points and communicate more locally than snake-keyed
// ones, for uniform and centre-concentrated distributions.
func ND(w io.Writer, quick bool) *NDResult {
	n := 65536
	side := 32
	ranks := []int{8, 64}
	if quick {
		n = 16384
		side = 16
		ranks = []int{8, 64}
	}
	g := mesh3.NewGrid(side, side, side)
	res := &NDResult{}

	fmt.Fprintf(w, "3-D generalisation (measured): %d particles, %d^3 mesh, independent partitioning\n", n, side)
	fmt.Fprintf(w, "%-10s %-8s %6s %10s %10s %9s %9s\n",
		"dist", "scheme", "ranks", "maxGhost", "totGhost", "partners", "nonlocal")
	hr(w, 68)

	for _, dist := range []string{particle.DistUniform, particle.DistIrregular} {
		s, err := particle.Generate(particle.Config{
			N: n, Lx: g.Lx, Ly: g.Ly, Lz: g.Lz,
			Distribution: dist, Seed: 55,
		})
		if err != nil {
			panic(err)
		}
		for _, scheme := range []string{sfc.SchemeHilbert, sfc.SchemeSnake} {
			for _, p := range ranks {
				d, err := mesh3.NewDistOrdered(g, p, scheme)
				if err != nil {
					panic(err)
				}
				ge := geom.New3(g, d, d.Cells)
				q := partition.Measure(ge, partition.BuildIndependent(ge, s), s, nil)
				res.Cells = append(res.Cells, NDCell{Distribution: dist, Scheme: scheme, P: p, Quality: q})
				fmt.Fprintf(w, "%-10s %-8s %6d %10d %10d %9d %9.3f\n",
					dist, scheme, p, q.MaxGhostPoints, q.TotalGhostPoints, q.MaxPartners, q.NonLocalFraction)
			}
		}
	}
	return res
}

// Find locates a cell.
func (r *NDResult) Find(dist, scheme string, p int) *NDCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Distribution == dist && c.Scheme == scheme && c.P == p {
			return c
		}
	}
	return nil
}

// WriteCSV exports the 3-D measurements.
func (r *NDResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Distribution, c.Scheme, strconv.Itoa(c.P),
			strconv.Itoa(c.Quality.MaxGhostPoints), strconv.Itoa(c.Quality.TotalGhostPoints),
			strconv.Itoa(c.Quality.MaxPartners), f(c.Quality.NonLocalFraction),
		})
	}
	return writeCSV(w, []string{"distribution", "scheme", "ranks",
		"max_ghost_points", "total_ghost_points", "max_partners", "nonlocal_fraction"}, rows)
}
