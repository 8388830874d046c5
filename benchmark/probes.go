package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"picpar/internal/ckpt"
	"picpar/internal/comm"
	"picpar/internal/geom"
	"picpar/internal/jobspec"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/mesh3"
	"picpar/internal/par"
	"picpar/internal/particle"
	"picpar/internal/pic"
	"picpar/internal/psort"
	"picpar/internal/pusher"
	"picpar/internal/radix"
	"picpar/internal/sfc"
)

// Probes call one layer's public functions directly, at the sizes of the
// workload being traced, so that a later change to that layer has a number
// of its own to move. Probes that need a transport run on P = 4 ranks.

// prober carries what every probe needs: the workload's problem, its
// geometry and how much to repeat.
type prober struct {
	spec  jobspec.Spec
	ge    geom.Geometry
	scale int // repetition divisor: 1 at full size, 8 in quick mode
	out   map[string]float64
}

func newProber(spec jobspec.Spec, quick bool, out map[string]float64) (*prober, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	ge, err := newGeometry(cfg)
	if err != nil {
		return nil, err
	}
	scale := 1
	if quick {
		scale = 8
	}
	return &prober{spec: spec, ge: ge, scale: scale, out: out}, nil
}

// newGeometry builds the geometry pic.Run builds for cfg, through the same
// public constructors (Hilbert ordering, curve-ordered BLOCK mesh).
func newGeometry(cfg pic.Config) (geom.Geometry, error) {
	if cfg.Dims == 3 {
		g := cfg.Grid3
		dist, err := mesh3.NewDistOrdered(g, ranks, sfc.SchemeHilbert)
		if err != nil {
			return nil, err
		}
		ix, err := sfc.New3(sfc.SchemeHilbert, g.Nx, g.Ny, g.Nz)
		if err != nil {
			return nil, err
		}
		return geom.New3(g, dist, ix), nil
	}
	g := cfg.Grid
	dist, err := mesh.NewDistOrdered(g, ranks, sfc.SchemeHilbert)
	if err != nil {
		return nil, err
	}
	ix, err := sfc.New(sfc.SchemeHilbert, g.Nx, g.Ny)
	if err != nil {
		return nil, err
	}
	return geom.New2(g, dist, ix), nil
}

func (p *prober) reps(n int) int { return max(n/p.scale, 2) }

// generate builds the workload's global population the way a run does.
func (p *prober) generate() (*particle.Store, error) {
	return p.ge.Generate(geom.GenConfig{
		N: p.spec.Particles, Distribution: p.spec.Distribution, Seed: p.spec.Seed,
		Thermal: 0.3, Charge: -0.02, // pic's defaults
	})
}

// chunk copies rank r's contiguous share of the global population.
func chunk(global *particle.Store, r int) *particle.Store {
	lo, hi := mesh.BlockRange(global.Len(), ranks, r)
	s := global.NewLike(hi - lo)
	for i := lo; i < hi; i++ {
		s.AppendFrom(global, i)
	}
	return s
}

// spmd runs fn on P goroutine-world ranks and turns a rank panic into an
// error.
func spmd(fn func(t comm.Transport)) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("probe panicked: %v", p)
		}
	}()
	comm.Launch(ranks, machine.CM5(), fn)
	return nil
}

// timedRegion times body between two barriers on every rank and returns
// rank 0's wall time: the region ends when the slowest rank is done.
func timedRegion(t comm.Transport, body func()) time.Duration {
	comm.Barrier(t)
	t0 := time.Now()
	body()
	comm.Barrier(t)
	return time.Since(t0)
}

// particles: generation, key assignment and the initial sample sort — the
// pieces of setup_s on the particle side.
func (p *prober) particles() error {
	var global *particle.Store
	var gen []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		g, err := p.generate()
		if err != nil {
			return err
		}
		gen = append(gen, time.Since(t0).Seconds()*1e3)
		global = g
	}
	p.out["particle.generate_ms"] = median(gen)

	n := p.reps(8)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.ge.AssignKeys(global)
	}
	p.out["geom.assign_keys_ns_per_particle"] = float64(time.Since(t0)) / float64(n) / float64(global.Len())

	var sorts []float64
	for i := 0; i < 3; i++ {
		var d time.Duration
		err := spmd(func(t comm.Transport) {
			s := chunk(global, t.Rank())
			dt := timedRegion(t, func() { psort.SampleSort(t, s) })
			if t.Rank() == 0 {
				d = dt
			}
		})
		if err != nil {
			return err
		}
		sorts = append(sorts, d.Seconds()*1e3)
	}
	p.out["psort.sample_sort_ms"] = median(sorts)
	return nil
}

// redistribution: the incremental sort's own cost at the workload's N/P,
// with the classification counts that say how much work it skipped. Each
// firing follows one Move of every particle, as in a periodic:1 run.
func (p *prober) redistribution() error {
	global, err := p.generate()
	if err != nil {
		return err
	}
	p.ge.AssignKeys(global)
	firings := p.reps(8)
	cells := float64(p.ge.NumCells())
	for _, weighted := range []bool{false, true} {
		var wall time.Duration
		var total, off, same int
		var ms0, ms1 runtime.MemStats
		err := spmd(func(t comm.Transport) {
			s := psort.SampleSort(t, chunk(global, t.Rank()))
			inc := psort.NewIncremental(0)
			inc.Prime(s)
			// A weight that is not flat: the first quarter of the curve
			// costs four times the rest.
			wf := func(key float64) float64 {
				if key < cells/4 {
					return 4
				}
				return 1
			}
			comm.Barrier(t)
			if t.Rank() == 0 {
				runtime.ReadMemStats(&ms0)
			}
			for k := 0; k < firings; k++ {
				for i := 0; i < s.Len(); i++ {
					p.ge.Move(s, i, 0.2)
				}
				p.ge.AssignKeys(s)
				var st psort.Stats
				n := s.Len()
				dt := timedRegion(t, func() {
					if weighted {
						s, st = inc.RedistributeWeighted(t, s, wf)
					} else {
						s, st = inc.Redistribute(t, s)
					}
				})
				counts := comm.AllreduceSumFloat64s(t, []float64{float64(n), float64(st.OffProc), float64(st.SameBucket)})
				if t.Rank() == 0 {
					wall += dt
					total += int(counts[0])
					off += int(counts[1])
					same += int(counts[2])
				}
			}
			comm.Barrier(t)
			if t.Rank() == 0 {
				runtime.ReadMemStats(&ms1)
			}
		})
		if err != nil {
			return err
		}
		ms := wall.Seconds() * 1e3 / float64(firings)
		if weighted {
			p.out["psort.redistribute_weighted_ms"] = ms
			continue
		}
		p.out["psort.redistribute_ms"] = ms
		p.out["psort.offproc_frac"] = float64(off) / float64(total)
		p.out["psort.same_bucket_frac"] = float64(same) / float64(total)
		p.out["psort.redistribute_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(firings)
		p.out["psort.redistribute_alloc_kb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(firings)
	}
	return nil
}

// kernels: single-threaded loops over one rank's share of the particles.
func (p *prober) kernels() error {
	global, err := p.generate()
	if err != nil {
		return err
	}
	s := chunk(global, 0)
	n := s.Len()

	// Radix sort of (key, id) pairs, fresh unsorted input each time.
	rng := rand.New(rand.NewSource(p.spec.Seed))
	hi0, lo0 := make([]uint64, n), make([]uint64, n)
	for i := range hi0 {
		hi0[i] = uint64(rng.Intn(p.ge.NumCells()))
		lo0[i] = uint64(rng.Intn(n))
	}
	hi, lo, idx := make([]uint64, n), make([]uint64, n), make([]int32, n)
	var sc radix.Scratch
	var sortTime time.Duration
	sorts := p.reps(16)
	for k := 0; k < sorts; k++ {
		copy(hi, hi0)
		copy(lo, lo0)
		for i := range idx {
			idx[i] = int32(i)
		}
		t0 := time.Now()
		radix.SortPairs(hi, lo, idx, &sc)
		sortTime += time.Since(t0)
	}
	p.out["radix.sort_ns_per_key"] = float64(sortTime) / float64(sorts) / float64(n)

	// Boris push plus move in a uniform field.
	pushes := p.reps(16)
	t0 := time.Now()
	for k := 0; k < pushes; k++ {
		for i := 0; i < n; i++ {
			pusher.BorisPush(s, i, 0.01, 0.02, 0.03, 0.1, 0.2, 0.3, 0.2)
			p.ge.Move(s, i, 0.2)
		}
	}
	p.out["pusher.boris_ns_per_particle"] = float64(time.Since(t0)) / float64(pushes) / float64(n)

	// Cost-ledger observation: one ObserveN per particle, one Commit per pass.
	led := machine.NewCostLedger(p.ge.NumCells(), machine.DefaultLedgerDecay)
	p.ge.AssignKeys(s)
	passes := p.reps(16)
	t0 = time.Now()
	for k := 0; k < passes; k++ {
		for i := 0; i < n; i++ {
			led.ObserveN(int(s.Key[i]), 5)
		}
		led.Commit(1)
	}
	p.out["machine.costledger_observe_ns"] = float64(time.Since(t0)) / float64(passes) / float64(n)

	// The worker pool's cost per Run with nothing to do.
	pool := par.New(2)
	defer pool.Close()
	runs := p.reps(20000)
	t0 = time.Now()
	for k := 0; k < runs; k++ {
		pool.Run(2, noopTask{})
	}
	p.out["par.run_overhead_us"] = float64(time.Since(t0)) / 1e3 / float64(runs)
	return nil
}

type noopTask struct{}

func (noopTask) Work(worker, lo, hi int) {}

// fieldSolve times the Maxwell step with its halo exchanges on the
// workload's mesh (field.Local in 2-D, field.Local3 in 3-D).
func (p *prober) fieldSolve() error {
	steps := p.reps(40)
	var d time.Duration
	err := spmd(func(t comm.Transport) {
		f := p.ge.NewFields(t.Rank(), nil)
		f.Solve(t, 0.2)
		dt := timedRegion(t, func() {
			for k := 0; k < steps; k++ {
				f.Solve(t, 0.2)
			}
		})
		if t.Rank() == 0 {
			d = dt
		}
	})
	if err != nil {
		return err
	}
	p.out["field.solve_ns_per_cell"] = float64(d) / float64(steps) / float64(p.ge.NumPoints())
	return nil
}

// scaling: the plain single-threaded baseline of the workload's problem
// (P = 1, one worker), the speed-up of the workload as run over it, and
// what a second shared-memory worker buys at P = 1.
func (p *prober) scaling(p4Wall float64) error {
	spec := p.spec
	spec.Ranks = 1
	spec.CheckpointEvery = 0
	walls := map[int]float64{}
	for _, workers := range []int{1, 2} {
		spec.Workers = workers
		run, err := runSim(spec, false, nil)
		if err != nil {
			return fmt.Errorf("P=1 workers=%d: %w", workers, err)
		}
		walls[workers] = run.wall.Seconds()
	}
	p.out["pic.p1_wall_s"] = walls[1]
	p.out["pic.speedup_p4"] = walls[1] / p4Wall
	p.out["par.speedup_w2"] = walls[1] / walls[2]
	return nil
}

// messagePath times the transport primitives on each backend at P = 4:
// the goroutine world, loopback TCP, and the hierarchical transport (two
// hosts of two ranks, so rank 0 ↔ rank 3 crosses the gateway).
func (p *prober) messagePath() error {
	pings, gathers, exchanges := p.reps(2000), p.reps(400), p.reps(40)
	// One particle share split four ways, in wire floats — the size of a
	// redistribution payload when everything moves.
	floats := max(p.spec.Particles/ranks/ranks*8, 64)
	type result struct{ ping, gather, exchange time.Duration }
	body := func(res *result) func(t comm.Transport) {
		return func(t comm.Transport) {
			const tag = comm.TagUser + 1
			last := t.Size() - 1
			one := []float64{1}
			ping := timedRegion(t, func() {
				for k := 0; k < pings; k++ {
					switch t.Rank() {
					case 0:
						comm.SendFloat64s(t, last, tag, one)
						one = comm.RecvFloat64s(t, last, tag)
					case last:
						comm.SendFloat64s(t, 0, tag, comm.RecvFloat64s(t, 0, tag))
					}
				}
			})
			block := make([]float64, 64)
			gather := timedRegion(t, func() {
				for k := 0; k < gathers; k++ {
					comm.AllgatherFloat64s(t, block)
				}
			})
			send := make([][]float64, t.Size())
			counts := make([]int, t.Size())
			for d := range send {
				if d != t.Rank() {
					send[d] = make([]float64, floats)
					counts[d] = floats
				}
			}
			exchange := timedRegion(t, func() {
				for k := 0; k < exchanges; k++ {
					comm.AllToManyFloat64s(t, send, counts)
				}
			})
			if t.Rank() == 0 {
				*res = result{ping, gather, exchange}
			}
		}
	}
	record := func(backend string, r result) {
		p.out["comm.pingpong_us."+backend] = float64(r.ping) / 1e3 / float64(pings)
		p.out["comm.allgather_us."+backend] = float64(r.gather) / 1e3 / float64(gathers)
		moved := float64(exchanges) * float64(ranks*(ranks-1)*floats*8)
		p.out["comm.alltomany_mb_s."+backend] = moved / 1e6 / r.exchange.Seconds()
	}

	var world, tcp, hier result
	if err := spmd(body(&world)); err != nil {
		return err
	}
	record("world", world)

	tmpl := comm.NetConfig{Params: machine.CM5()}
	if err := firstError(comm.LaunchLoopback(tmpl, ranks, nil, body(&tcp))); err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	record("tcp", tcp)

	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("hierarchical probe panicked: %v", p)
			}
		}()
		_, err = comm.LaunchHierarchical(ranks, 2, machine.CM5(), 0, nil, body(&hier))
		return err
	}()
	if err != nil {
		return err
	}
	record("hier", hier)

	var assembly []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		if err := firstError(comm.LaunchLoopback(tmpl, ranks, nil, func(comm.Transport) {})); err != nil {
			return fmt.Errorf("tcp assembly: %w", err)
		}
		assembly = append(assembly, time.Since(t0).Seconds()*1e3)
	}
	p.out["comm.assembly_ms.tcp"] = median(assembly)
	return nil
}

func firstError(_ machine.WorldStats, errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// specParse times a jobspec document becoming a pic.Config.
func (p *prober) specParse() error {
	doc, err := json.Marshal(p.spec)
	if err != nil {
		return err
	}
	n := p.reps(4000)
	t0 := time.Now()
	for k := 0; k < n; k++ {
		var s jobspec.Spec
		if err := json.Unmarshal(doc, &s); err != nil {
			return err
		}
		if _, err := s.Config(); err != nil {
			return err
		}
	}
	p.out["jobspec.parse_us"] = float64(time.Since(t0)) / 1e3 / float64(n)
	return nil
}

// checkpoints runs the workload's problem for two iterations with a
// checkpoint directory, then times the shard codec and the atomic store on
// the shards that run left behind.
func (p *prober) checkpoints(outDir string) error {
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spec := p.spec
	spec.Iterations = 2
	spec.CheckpointEvery = 2
	spec.CheckpointDir = filepath.Join(dir, "run")
	if _, err := runSim(spec, false, nil); err != nil {
		return fmt.Errorf("checkpointed run: %w", err)
	}
	const epoch = 2
	var bytes int
	var read, write, encode, decode time.Duration
	var image []byte
	for r := 0; r < ranks; r++ {
		path := ckpt.ShardPath(spec.CheckpointDir, epoch, r)
		t0 := time.Now()
		sh, err := ckpt.ReadShard(path)
		if err != nil {
			return err
		}
		read += time.Since(t0)

		t0 = time.Now()
		image = ckpt.EncodeShard(image[:0], sh)
		encode += time.Since(t0)
		bytes += len(image)

		t0 = time.Now()
		if _, err := ckpt.DecodeShard(image); err != nil {
			return err
		}
		decode += time.Since(t0)

		t0 = time.Now()
		if err := ckpt.WriteShard(filepath.Join(dir, "rewrite"), sh); err != nil {
			return err
		}
		write += time.Since(t0)
	}
	p.out["ckpt.shard_kb"] = float64(bytes) / 1024 / ranks
	p.out["ckpt.read_ms"] = read.Seconds() * 1e3 / ranks
	p.out["ckpt.write_ms"] = write.Seconds() * 1e3 / ranks
	p.out["ckpt.encode_mb_s"] = float64(bytes) / 1e6 / encode.Seconds()
	p.out["ckpt.decode_mb_s"] = float64(bytes) / 1e6 / decode.Seconds()
	return nil
}
