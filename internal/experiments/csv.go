package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Each experiment result can export its data as CSV so the figures can be
// re-plotted with external tooling. Columns mirror the quantities the
// paper plots.

// writeCSV writes the header and then the rows as CSV to w.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	return cw.WriteAll(rows)
}

// WriteCSV exports the Table 1 measurements.
func (t *Table1Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Strategy.String(), r.Movement, r.Epoch,
			f(r.Quality.GridImbalance), f(r.Quality.ParticleImbalance),
			strconv.Itoa(r.Quality.MaxGhostPoints), strconv.Itoa(r.Quality.MaxPartners),
			f(r.Quality.NonLocalFraction),
		})
	}
	return writeCSV(w, []string{"strategy", "movement", "epoch", "field_imbalance",
		"particle_imbalance", "max_ghost_points", "max_partners", "nonlocal_fraction"}, rows)
}

// WriteCSV exports the Figure 16 totals.
func (f16 *Fig16Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, c := range f16.Cells {
		rows = append(rows, []string{
			strconv.Itoa(c.Case.Nx), strconv.Itoa(c.Case.Ny), strconv.Itoa(c.Case.N),
			c.Policy, f(c.Total), f(c.Redist), strconv.Itoa(c.NumRedist),
		})
	}
	return writeCSV(w, []string{"mesh_nx", "mesh_ny", "particles", "policy",
		"total_s", "redist_s", "num_redist"}, rows)
}

// WriteCSV exports the Figures 17–19 per-iteration histories (one row per
// iteration per policy).
func (f17 *Fig17Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, s := range f17.Series {
		for _, rec := range s.Records {
			rows = append(rows, []string{
				s.Policy, strconv.Itoa(rec.Iter), f(rec.Time), f(rec.Compute),
				strconv.FormatInt(rec.ScatterBytesSent, 10), strconv.FormatInt(rec.ScatterBytesRecv, 10),
				strconv.FormatInt(rec.ScatterMsgsSent, 10), strconv.FormatInt(rec.ScatterMsgsRecv, 10),
				strconv.FormatBool(rec.Redistributed), f(rec.RedistTime),
			})
		}
	}
	return writeCSV(w, []string{"policy", "iter", "time_s", "compute_s",
		"scatter_bytes_sent", "scatter_bytes_recv", "scatter_msgs_sent", "scatter_msgs_recv",
		"redistributed", "redist_s"}, rows)
}

// WriteCSV exports the Figure 20 policy comparison.
func (f20 *Fig20Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, c := range f20.Cells {
		rows = append(rows, []string{c.Policy, f(c.Execution), f(c.Redist), f(c.Total), strconv.Itoa(c.NumRedist)})
	}
	return writeCSV(w, []string{"policy", "exec_s", "redist_s", "total_s", "num_redist"}, rows)
}

// WriteCSV exports the Table 2 grid (which also carries Figures 21–22 and
// Table 3 as columns).
func (t *Table2Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, c := range t.Cells {
		rows = append(rows, []string{
			c.Distribution, strconv.Itoa(c.Nx), strconv.Itoa(c.Ny), strconv.Itoa(c.N),
			c.Indexing, strconv.Itoa(c.P), f(c.Computation), f(c.Total),
			f(c.Overhead), f(c.Redist), strconv.Itoa(c.NumRedist), f(c.Efficiency),
		})
	}
	return writeCSV(w, []string{"distribution", "mesh_nx", "mesh_ny", "particles",
		"indexing", "ranks", "computation_s", "total_s", "overhead_s",
		"redist_s", "num_redist", "efficiency"}, rows)
}

// WriteCSV exports the baseline comparison.
func (b *BaselineResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, c := range b.Cells {
		rows = append(rows, []string{c.Method, strconv.Itoa(c.P), f(c.Total), f(c.Compute), f(c.Overhead)})
	}
	return writeCSV(w, []string{"method", "ranks", "total_s", "compute_s", "overhead_s"}, rows)
}

// WriteCSV exports the ablation measurements as key/value rows.
func (a *AblationResult) WriteCSV(w io.Writer) error {
	return writeCSV(w, []string{"metric", "value"}, [][]string{
		{"incremental_redist_s", f(a.IncrementalRedistTime)},
		{"full_sort_redist_s", f(a.FullSortRedistTime)},
		{"direct_table_total_s", f(a.DirectTotal)},
		{"hash_table_total_s", f(a.HashTotal)},
		{"dist2d_scatter_bytes", strconv.FormatInt(a.Dist2DScatterBytes, 10)},
		{"dist1d_scatter_bytes", strconv.FormatInt(a.Dist1DScatterBytes, 10)},
	})
}

// f formats a float for CSV.
func f(v float64) string { return fmt.Sprintf("%.6g", v) }
