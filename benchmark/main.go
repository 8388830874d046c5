// Command benchmark is the repository's benchmark: five fixed workloads,
// eight end-to-end metrics each, and — in a separate traced pass — the
// per-layer numbers behind them. Everything is measured from outside the
// program, through its public seams. README.md has the tables.
//
// The driver's form, from the root of a checkout:
//
//	bash benchmark/run.sh --workload steady2d --seed 11 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object (correct, attempted,
// failed, metrics); the readable report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the driver-facing result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names every end-to-end metric and its unit.
var endToEndUnits = map[string]string{
	"setup_s":              "s",
	"run_wall_s":           "s",
	"particle_steps_per_s": "1/s",
	"iter_wall_ms_p50":     "ms",
	"allocs_per_iter":      "count",
	"alloc_kb_per_iter":    "KiB",
	"sim_total_s":          "sim_s",
	"sim_efficiency":       "ratio",
}

// driftLimit is the spread of the host reference kernel across rounds
// beyond which an invocation is marked host_drift.
const driftLimit = 1.15

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: steady2d, rebalance2d, weighted2d, tcp3d or serve")
	flag.Int64Var(&o.seed, "seed", 11, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 makes the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "small problems and two rounds (smoke test)")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace.json and scratch data")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments; -trace takes 0 or 1")
		os.Exit(2)
	}
	o.trace = *trace == 1

	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: encode result:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run performs one invocation: one workload, traced or not.
func run(o options) (output, error) {
	w, err := findWorkload(workloads(o.seed, o.quick), o.workload)
	if err != nil {
		return output{}, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return output{}, err
	}
	pinHost()

	budget := time.Duration(o.seconds * float64(time.Second))
	rounds := minReps
	if o.quick {
		budget, rounds = 0, 2
	}
	pass, units := untracedPass, endToEndUnits
	if o.trace {
		pass, units = tracedPass, perLayerUnits
	}
	m, metrics, err := pass(w, o, budget, rounds)
	if err != nil {
		return output{}, err
	}

	drift := hostDrift(m.refKernel)
	reportHost(w, o, m, drift)
	out := output{
		Correct:   m.failed == 0 && len(m.reps) > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range m.notes {
		fmt.Fprintln(os.Stderr, "FAILED:", n)
	}
	if !out.Correct {
		return out, nil
	}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := metrics[name]
		if !ok {
			return output{}, fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = metric{Value: v, Unit: units[name]}
		fmt.Fprintf(os.Stderr, "%-11s %-34s %16.6g %s\n", w.name, name, v, units[name])
	}
	return out, nil
}

// untracedPass measures the end-to-end metrics of one workload.
func untracedPass(w workload, o options, budget time.Duration, rounds int) (measurement, map[string]float64, error) {
	r, err := newRunner(w, o.outDir)
	if err != nil {
		return measurement{}, nil, err
	}
	defer r.close()
	m := measure(r, budget, rounds)
	if m.failed > 0 || len(m.reps) == 0 {
		return m, nil, nil
	}
	return m, m.endToEnd(), nil
}

func newRunner(w workload, outDir string) (runner, error) {
	if w.clients > 0 {
		return newServeRunner(w, outDir)
	}
	return &simRunner{w: w}, nil
}

// pinHost fixes what the measurement depends on in the process itself: at
// most four OS threads run Go code, and no PICPAR_* variable reaches the
// program (they default worker counts, watchdogs and checkpoint paths).
func pinHost() {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "PICPAR_") {
			os.Unsetenv(name)
		}
	}
}

func hostDrift(refKernel []float64) float64 {
	if len(refKernel) == 0 {
		return 1
	}
	lo, hi := refKernel[0], refKernel[0]
	for _, v := range refKernel {
		lo, hi = min(lo, v), max(hi, v)
	}
	return hi / lo
}

// reportHost writes the host record: what a reader needs to know before
// comparing this invocation with another.
func reportHost(w workload, o options, m measurement, drift float64) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Fprintf(os.Stderr, "host: nproc=%d GOMAXPROCS=%d %s GOGC=%s fs(%s)=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc, o.outDir, fsType(o.outDir))
	fmt.Fprintf(os.Stderr, "run: workload=%s seed=%d trace=%v repetitions=%d set-ups=%d measured=%.1fs cpu_util=%.2f\n",
		w.name, o.seed, o.trace, len(m.reps), len(m.setups), m.wall, m.cpu/max(m.wall, 1e-9))
	walls := make([]string, len(m.reps))
	for i, r := range m.reps {
		walls[i] = fmt.Sprintf("%.3f", r.wall)
	}
	fmt.Fprintf(os.Stderr, "run_wall_s per repetition: %s\n", strings.Join(walls, " "))
	parts := make([]string, len(m.refKernel))
	for i, v := range m.refKernel {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	fmt.Fprintf(os.Stderr, "host.ref_kernel_ms per round: %s (drift %.3f)\n", strings.Join(parts, " "), drift)
	if drift > driftLimit {
		fmt.Fprintf(os.Stderr, "host_drift: the reference kernel varied by %.0f%% across rounds; treat this invocation as disturbed\n", (drift-1)*100)
	}
}

// fsType names the filesystem holding dir (the served workload fsyncs
// manifests and checkpoint shards there).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683e: "btrfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
