// Command picbench regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints a measured, paper-style text
// table and can additionally export its raw data as CSV.
//
// Usage:
//
//	picbench -exp all                  # every experiment, quick sizes
//	picbench -exp fig16 -full          # one experiment at the paper's full sizes
//	picbench -exp all -csv results/    # also write results/<exp>.csv
//
// Experiments: table1, fig16, fig17 (also covers figs 18–19), fig20,
// table2 (also covers figs 21–22 and table3), ablation, baseline, nd,
// strategy (layout-strategy comparison on the skewed spike workload), all.
//
// Wall-clock performance is not measured here: benchmark/ is the repo's
// one wall-clock harness (see benchmark/README.md).
//
// With -traffic, picbench runs the per-phase traffic-regression gate: a
// fixed reference simulation is traced through comm.Tracer and its
// per-phase message/byte totals compared against the most recent
// <bench-dir>/TRAFFIC_<date>.json; any increase exits non-zero — the
// simulated transport is deterministic, so the comparison tolerates zero
// inflation. A new snapshot is written only when there is no baseline yet,
// or when the gate passes and the totals changed.
// The gate also measures the per-topology socket matrix over real loopback
// TCP assemblies (full-mesh and neighbor-sparse at P=8 and P=16) and fails
// unless neighbor-sparse opens strictly fewer sockets than the full mesh —
// the O(P²) → O(P·k) assembly claim. With
// -require-baseline (the CI form) a missing baseline is itself an error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"picpar/internal/experiments"
)

// csvWriter is implemented by every experiment result.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}

func main() {
	exp := flag.String("exp", "all", "experiment id: table1|fig16|fig17|fig20|table2|ablation|baseline|nd|strategy|all")
	full := flag.Bool("full", false, "use the paper's full problem sizes (slow)")
	csvDir := flag.String("csv", "", "directory to write <exp>.csv files into (created if absent)")
	traffic := flag.Bool("traffic", false, "run the per-phase traffic-regression gate instead of the experiments")
	benchDir := flag.String("bench-dir", "bench", "directory for TRAFFIC_<date>.json snapshots")
	requireBaseline := flag.Bool("require-baseline", false, "with -traffic: fail if no previous TRAFFIC_*.json baseline exists (CI form)")
	flag.Parse()

	if *traffic {
		if err := runTraffic(*benchDir, *requireBaseline); err != nil {
			fmt.Fprintf(os.Stderr, "picbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	quick := !*full
	runners := map[string]func() csvWriter{
		"table1":   func() csvWriter { return experiments.Table1(os.Stdout, quick) },
		"fig16":    func() csvWriter { return experiments.Fig16(os.Stdout, quick) },
		"fig17":    func() csvWriter { return experiments.Fig17to19(os.Stdout, quick) },
		"fig20":    func() csvWriter { return experiments.Fig20(os.Stdout, quick) },
		"table2":   func() csvWriter { return experiments.Table2(os.Stdout, quick) },
		"ablation": func() csvWriter { return experiments.Ablation(os.Stdout, quick) },
		"baseline": func() csvWriter { return experiments.Baseline(os.Stdout, quick) },
		"nd":       func() csvWriter { return experiments.ND(os.Stdout, quick) },
		"strategy": func() csvWriter { return experiments.Strategies(os.Stdout, quick) },
	}
	order := []string{"table1", "fig16", "fig17", "fig20", "table2", "ablation", "baseline", "nd", "strategy"}

	var todo []string
	if *exp == "all" {
		todo = order
	} else if _, ok := runners[*exp]; ok {
		todo = []string{*exp}
	} else {
		fmt.Fprintf(os.Stderr, "picbench: unknown experiment %q (want one of %v or all)\n", *exp, order)
		os.Exit(2)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "picbench: %v\n", err)
			os.Exit(1)
		}
	}

	mode := "quick"
	if *full {
		mode = "full (paper sizes)"
	}
	fmt.Printf("picbench: mode=%s\n\n", mode)
	for _, id := range todo {
		start := time.Now()
		res := runners[id]()
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, id+".csv")
			if err := writeCSVFile(path, res); err != nil {
				fmt.Fprintf(os.Stderr, "picbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("[%s data written to %s]\n\n", id, path)
		}
	}
}

func writeCSVFile(path string, res csvWriter) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
