package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"picpar/internal/comm"
	"picpar/internal/jobspec"
	"picpar/internal/machine"
	"picpar/internal/pic"
)

// perLayerUnits names every per-layer metric and its unit. README.md says
// which end-to-end metric each should move, on which workload.
var perLayerUnits = map[string]string{
	// Traced repetition: phase self times and transport leaves, mean over ranks.
	"pic.scatter_ms_per_iter":      "ms",
	"pic.fieldsolve_ms_per_iter":   "ms",
	"pic.gather_ms_per_iter":       "ms",
	"pic.push_ms_per_iter":         "ms",
	"pic.redistribute_ms_per_iter": "ms",
	"pic.commsetup_ms_per_iter":    "ms",
	"comm.recv_wait_ms_per_iter":   "ms",
	"comm.send_ms_per_iter":        "ms",
	"comm.expose_ms_per_iter":      "ms",
	"trace.overhead_frac":          "ratio",
	// Exact counts from the program's own result.
	"pic.redistributions":     "count",
	"pic.busy_imbalance_mean": "ratio",
	"pic.sim_overhead_s":      "sim_s",
	"comm.msgs_per_iter":      "count",
	"comm.kb_per_iter":        "KiB",
	// Untraced repetitions of the traced pass.
	"pic.iter_wall_ms_p95":   "ms",
	"proc.cpu_util":          "ratio",
	"proc.gc_cycles":         "count",
	"proc.gc_pause_ms":       "ms",
	"proc.heap_inuse_mb_end": "MiB",
	"host.ref_kernel_ms":     "ms",
	"host.drift":             "ratio",
	// Probes.
	"pic.p1_wall_s":                    "s",
	"pic.speedup_p4":                   "ratio",
	"par.speedup_w2":                   "ratio",
	"par.run_overhead_us":              "us",
	"field.solve_ns_per_cell":          "ns",
	"comm.pingpong_us.world":           "us",
	"comm.pingpong_us.tcp":             "us",
	"comm.pingpong_us.hier":            "us",
	"comm.allgather_us.world":          "us",
	"comm.allgather_us.tcp":            "us",
	"comm.allgather_us.hier":           "us",
	"comm.alltomany_mb_s.world":        "MB/s",
	"comm.alltomany_mb_s.tcp":          "MB/s",
	"comm.alltomany_mb_s.hier":         "MB/s",
	"comm.assembly_ms.tcp":             "ms",
	"particle.generate_ms":             "ms",
	"geom.assign_keys_ns_per_particle": "ns",
	"psort.sample_sort_ms":             "ms",
	"psort.redistribute_ms":            "ms",
	"psort.redistribute_weighted_ms":   "ms",
	"psort.offproc_frac":               "ratio",
	"psort.same_bucket_frac":           "ratio",
	"psort.redistribute_allocs":        "count",
	"psort.redistribute_alloc_kb":      "KiB",
	"radix.sort_ns_per_key":            "ns",
	"pusher.boris_ns_per_particle":     "ns",
	"machine.costledger_observe_ns":    "ns",
	"jobspec.parse_us":                 "us",
	"ckpt.shard_kb":                    "KiB",
	"ckpt.encode_mb_s":                 "MB/s",
	"ckpt.decode_mb_s":                 "MB/s",
	"ckpt.write_ms":                    "ms",
	"ckpt.read_ms":                     "ms",
	// The service path: the timed repetitions' jobs on serve, elsewhere the
	// workload's own problem submitted to a daemon as a job.
	"serve.submit_ms_p50":      "ms",
	"serve.queue_wait_ms_p50":  "ms",
	"serve.run_ms_p50":         "ms",
	"serve.direct_run_ms_p50":  "ms",
	"serve.job_latency_ms_p50": "ms",
	"serve.job_latency_ms_p90": "ms",
	"serve.jobs_per_s":         "1/s",
	"serve.sse_drop_frac":      "ratio",
	"serve.rejected":           "count",
}

// tracedReps is how many traced repetitions the pass makes; the spans of
// the fastest are kept.
const tracedReps = 3

// tracedPass produces the per-layer metrics of one workload: an untraced
// measurement a third as long (the baseline the traced runs are compared with),
// traced runs of the workload's problem with the span decorator installed,
// then the direct probes. For the served workload the decorator cannot be
// installed through the daemon — a jobspec carries no transport — so the
// same job specs are rerun directly through pic.Run.
func tracedPass(w workload, o options, budget time.Duration, rounds int) (measurement, map[string]float64, error) {
	r, err := newRunner(w, o.outDir)
	if err != nil {
		return measurement{}, nil, err
	}
	defer r.close()
	m := measure(r, budget/3, rounds)
	if m.failed > 0 || len(m.reps) == 0 {
		return m, nil, nil
	}
	out := make(map[string]float64, len(perLayerUnits))
	intervals := m.pooledIntervals()
	out["pic.iter_wall_ms_p95"] = quantile(intervals, 0.95)
	out["proc.cpu_util"] = m.cpu / m.wall
	out["proc.gc_cycles"] = float64(m.gcCycles)
	out["proc.gc_pause_ms"] = m.gcPauseMs
	out["host.ref_kernel_ms"] = median(m.refKernel)
	out["host.drift"] = hostDrift(m.refKernel)
	fmt.Fprintf(os.Stderr, "pic.iter_wall_ms_p95 pools %d intervals\n", len(intervals))

	// The runs to trace: the workload's problem, or one per served job.
	// Each traced repetition is paired with an undecorated one run just
	// before it, so the overhead is a ratio of neighbours in time.
	specs := []jobspec.Spec{w.spec}
	sr, served := r.(*serveRunner)
	if served {
		specs = sr.jobSpecs()
	}
	want := m.reps[0].print
	var best []*tracedRun
	var bestWall, firstSpecWall float64
	var direct, ratios []float64
	for rep := 0; rep < tracedReps; rep++ {
		var walls [2][]float64
		for traced := 0; traced < 2; traced++ {
			runs, results, ws, err := runSpecs(w, specs, traced == 1)
			walls[traced] = ws
			m.attempted += len(specs)
			if got := prints(results); err == nil && got != want {
				err = fmt.Errorf("fingerprint %s, untraced %s", got, want)
			}
			if err != nil {
				m.failed += len(specs)
				m.notes = append(m.notes, fmt.Sprintf("traced pass, repetition %d: %v", rep, err))
				return m, nil, nil
			}
			if traced == 1 && (best == nil || sum(walls[1]) < bestWall) {
				best, bestWall = runs, sum(walls[1])
			}
			if rep == 0 && traced == 1 {
				resultMetrics(out, results)
			}
		}
		direct = append(direct, walls[0]...)
		ratios = append(ratios, sum(walls[1])/sum(walls[0]))
		if rep == 0 || walls[0][0] < firstSpecWall {
			firstSpecWall = walls[0][0]
		}
	}
	out["trace.overhead_frac"] = median(ratios) - 1
	if served {
		serviceMetrics(out, sr.timed, sr.timedWall, direct)
	} else {
		m.attempted += 2
		jobs, wall, err := servedProbe(w.spec, o.outDir)
		if err != nil {
			m.failed += 2
			m.notes = append(m.notes, err.Error())
			return m, nil, nil
		}
		serviceMetrics(out, jobs, wall, direct)
	}
	spanMetrics(out, best)
	host := map[string]string{
		"workload": w.name, "seed": fmt.Sprint(o.seed), "nproc": fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)), "go": runtime.Version(),
	}
	if err := writeTrace(filepath.Join(o.outDir, "trace.json"), host, best); err != nil {
		return m, nil, fmt.Errorf("write trace: %w", err)
	}

	p, err := newProber(specs[0], o.quick, out)
	if err != nil {
		return m, nil, err
	}
	for _, probe := range []func() error{
		p.particles, p.redistribution, p.kernels, p.fieldSolve, p.messagePath, p.specParse,
		func() error { return p.scaling(firstSpecWall) },
		func() error { return p.checkpoints(o.outDir) },
	} {
		m.attempted++
		if err := probe(); err != nil {
			m.failed++
			m.notes = append(m.notes, err.Error())
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["proc.heap_inuse_mb_end"] = float64(ms.HeapInuse) / (1 << 20)
	return m, out, nil
}

// runSpecs runs every spec once, directly (no checkpoint directory, as a
// served job's direct counterpart), with a span tracer installed or not.
// It returns the traced runs (none when untraced), the program's results
// and each run's wall time in seconds.
func runSpecs(w workload, specs []jobspec.Spec, traced bool) (runs []*tracedRun, results []*pic.Result, walls []float64, err error) {
	for i, spec := range specs {
		spec.CheckpointEvery = 0
		var tr *tracer
		var wrap func(comm.Transport) comm.Transport
		if traced {
			tr = newTracer()
			wrap = tr.wrap
		}
		runtime.GC() // the previous run's garbage is not this run's to collect
		run, err := runSim(spec, w.tcp, wrap)
		if err != nil {
			return nil, nil, nil, err
		}
		if traced {
			name := w.name
			if len(specs) > 1 {
				name = fmt.Sprintf("%s job %d", w.name, i)
			}
			runs = append(runs, newTracedRun(name, tr, run))
		}
		results = append(results, run.res)
		walls = append(walls, run.wall.Seconds())
	}
	return runs, results, walls, nil
}

// prints joins the results' fingerprints the way repResult.print does.
func prints(results []*pic.Result) string {
	out := make([]string, len(results))
	for i, res := range results {
		out[i] = fmt.Sprintf("%016x/%d", res.Fingerprint, res.FinalParticleCount)
	}
	return strings.Join(out, ",")
}

// resultMetrics fills the exact figures the program reports about itself:
// counts are totals over the traced runs, ratios means.
func resultMetrics(out map[string]float64, results []*pic.Result) {
	var msgs, bytes int64
	iters := 0
	var imbalance []float64
	for _, res := range results {
		out["pic.redistributions"] += float64(res.NumRedistributions)
		out["pic.sim_overhead_s"] += res.Overhead
		iters += len(res.Records)
		for _, rec := range res.Records {
			imbalance = append(imbalance, rec.BusyImbalance)
		}
		for _, rank := range res.Stats.Ranks {
			total := rank.Total()
			msgs += total.MsgsSent
			bytes += total.BytesSent
		}
	}
	out["pic.busy_imbalance_mean"] = mean(imbalance)
	out["comm.msgs_per_iter"] = float64(msgs) / float64(iters)
	out["comm.kb_per_iter"] = float64(bytes) / 1024 / float64(iters)
}

// spanMetrics fills the phase and transport-leaf times from the traced
// runs, weighting each run by its iteration count, and prints where an
// iteration went phase by phase.
func spanMetrics(out map[string]float64, runs []*tracedRun) {
	var total breakdown
	iters := 0
	for _, run := range runs {
		b := run.breakdown()
		n := float64(len(run.stamps))
		iters += len(run.stamps)
		for p := range b.self {
			total.self[p] += b.self[p] * n
			for k := range b.leaf[p] {
				total.leaf[p][k] += b.leaf[p][k] * n
			}
		}
	}
	var spans [machine.NumPhases]float64
	var leaves [numLeafKinds]float64
	whole := 0.0
	for p := range total.self {
		total.self[p] /= float64(iters)
		spans[p] = total.self[p]
		for k := range total.leaf[p] {
			total.leaf[p][k] /= float64(iters)
			spans[p] += total.leaf[p][k]
			leaves[k] += total.leaf[p][k]
		}
		whole += spans[p]
	}
	fmt.Fprintf(os.Stderr, "%-14s %9s %6s %9s %9s %9s %9s   (ms per iteration, mean over ranks)\n",
		"phase", "span", "share", "self", "Recv", "Send", "Expose")
	for p := machine.Phase(0); int(p) < machine.NumPhases; p++ {
		out["pic."+p.String()+"_ms_per_iter"] = total.self[p]
		l := total.leaf[p]
		fmt.Fprintf(os.Stderr, "%-14s %9.3f %5.1f%% %9.3f %9.3f %9.3f %9.3f\n",
			p, spans[p], 100*spans[p]/whole, total.self[p], l[leafRecv], l[leafSend], l[leafExpose])
	}
	out["comm.recv_wait_ms_per_iter"] = leaves[leafRecv]
	out["comm.send_ms_per_iter"] = leaves[leafSend]
	out["comm.expose_ms_per_iter"] = leaves[leafExpose]
}

// jobSpecs returns the specs of one repetition's jobs, in job-index order.
func (s *serveRunner) jobSpecs() []jobspec.Spec {
	specs := make([]jobspec.Spec, s.w.clients*s.w.jobsPerClient)
	for i := range specs {
		specs[i] = s.w.spec
		specs[i].Seed += int64(i)
	}
	return specs
}

// serviceMetrics fills the service-path metrics from served jobs and the
// wall time that served them; direct holds the same problems' direct-run
// walls (s).
func serviceMetrics(out map[string]float64, jobs []jobObs, wall float64, direct []float64) {
	var submit, queue, run, latency, directMs []float64
	frames, seen, rejected := 0, 0, 0
	for _, j := range jobs {
		if j.rejected {
			rejected++
			continue
		}
		submit = append(submit, j.submitMs)
		latency = append(latency, j.latencyMs)
		queue = append(queue, j.manifest.Started.Sub(j.manifest.Submitted).Seconds()*1e3)
		run = append(run, j.manifest.Finished.Sub(j.manifest.Started).Seconds()*1e3)
		frames += j.spec.Iterations
		seen += j.iterSeen
	}
	for _, d := range direct {
		directMs = append(directMs, d*1e3)
	}
	out["serve.submit_ms_p50"] = median(submit)
	out["serve.queue_wait_ms_p50"] = median(queue)
	out["serve.run_ms_p50"] = median(run)
	out["serve.direct_run_ms_p50"] = median(directMs)
	out["serve.job_latency_ms_p50"] = median(latency)
	out["serve.job_latency_ms_p90"] = quantile(latency, 0.9)
	out["serve.jobs_per_s"] = float64(len(jobs)) / wall
	out["serve.sse_drop_frac"] = 1 - float64(seen)/float64(max(frames, 1))
	out["serve.rejected"] = float64(rejected)
	fmt.Fprintf(os.Stderr, "serve.* percentiles pool %d jobs\n", len(latency))
}

// servedProbe submits a simulation workload's own problem to a daemon as a
// job, twice in a row: what the service path adds at that problem's size.
func servedProbe(spec jobspec.Spec, outDir string) ([]jobObs, float64, error) {
	dir, err := os.MkdirTemp(outDir, "served-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	jobs := []jobObs{runJob(d.ts, spec), runJob(d.ts, spec)}
	wall := time.Since(t0).Seconds()
	if err := d.stop(); err != nil {
		return nil, 0, err
	}
	for i, j := range jobs {
		if err := jobProblem(j); err != nil {
			return nil, 0, fmt.Errorf("served probe job %d: %w", i, err)
		}
	}
	return jobs, wall, nil
}
