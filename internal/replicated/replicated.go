// Package replicated implements the replicated-mesh parallel PIC baseline
// of Lubeck and Faber (described in the paper's Section 3): a direct
// Lagrangian code in which every processor holds the entire mesh grid
// array.
//
// Scatter deposits locally into the full-mesh arrays and then element-wise
// sums them over all processors (a global reduction); the field solve is
// partitioned by rows and followed by a global concatenation that restores
// the full mesh everywhere; gather and push are purely local.
//
// The baseline needs no ghost points, no duplicate-removal tables, no
// redistribution — and, exactly as the paper recounts, its global
// operations on the whole mesh dominate execution as the machine grows.
// The experiments use it as the foil for the paper's distributed scheme.
package replicated

import (
	"fmt"

	"picpar/internal/comm"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/pic"
	"picpar/internal/pusher"
	"picpar/internal/wire"
)

// Result summarises a replicated-mesh run with the same headline fields as
// the distributed simulation.
type Result struct {
	TotalTime  float64
	ComputeMax float64
	ComputeSum float64
	Overhead   float64
	Efficiency float64
	// FinalFieldEnergy and FinalKineticEnergy are global energies at the
	// end of the run, for cross-implementation physics checks.
	FinalFieldEnergy   float64
	FinalKineticEnergy float64
	Stats              machine.WorldStats
}

// Run executes cfg with the replicated-mesh method. Only the fields shared
// with the distributed simulation are honoured (Grid, P, NumParticles,
// Distribution, Seed, Iterations, Dt, Thermal, Drift, MacroCharge,
// Machine); partitioning options are meaningless here.
func Run(cfg pic.Config) (*Result, error) {
	if cfg.CustomParticles != nil {
		cfg.NumParticles = cfg.CustomParticles.Len()
		if cfg.CustomParticles.Charge != 0 {
			cfg.MacroCharge = cfg.CustomParticles.Charge
		}
	}
	cfg = fillDefaults(cfg)
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	if cfg.P <= 0 || cfg.P > cfg.Grid.Ny {
		return nil, fmt.Errorf("replicated: cannot row-partition %d rows over %d ranks", cfg.Grid.Ny, cfg.P)
	}

	res := &Result{}
	w := comm.NewWorld(cfg.P, cfg.Machine)
	if cfg.Watchdog > 0 {
		w.SetWatchdog(cfg.Watchdog)
	}
	defer w.Close()
	ws := w.RunWrapped(cfg.Transport, func(r comm.Transport) { runRank(r, cfg, res) })
	res.Stats = ws
	res.ComputeSum = ws.TotalCompute()
	res.ComputeMax = ws.MaxCompute()
	res.Overhead = res.TotalTime - res.ComputeMax
	if res.TotalTime > 0 {
		res.Efficiency = res.ComputeSum / (float64(cfg.P) * res.TotalTime)
	}
	return res, nil
}

func fillDefaults(cfg pic.Config) pic.Config {
	if cfg.Grid.Nx == 0 {
		cfg.Grid = mesh.NewGrid(64, 32)
	}
	if cfg.Dt == 0 {
		cfg.Dt = 0.2
	}
	if cfg.Machine == (machine.Params{}) {
		cfg.Machine = machine.CM5()
	}
	if cfg.Distribution == "" {
		cfg.Distribution = particle.DistUniform
	}
	if cfg.Thermal == 0 {
		cfg.Thermal = 0.3
	}
	if cfg.MacroCharge == 0 {
		cfg.MacroCharge = -0.02
	}
	return cfg
}

// fullMesh is one rank's replica of every field on the whole grid.
type fullMesh struct {
	g               mesh.Grid
	Ex, Ey, Ez      []float64
	Bx, By, Bz      []float64
	Jx, Jy, Jz, Rho []float64
}

func newFullMesh(g mesh.Grid) *fullMesh {
	m := g.NumPoints()
	return &fullMesh{
		g:  g,
		Ex: make([]float64, m), Ey: make([]float64, m), Ez: make([]float64, m),
		Bx: make([]float64, m), By: make([]float64, m), Bz: make([]float64, m),
		Jx: make([]float64, m), Jy: make([]float64, m), Jz: make([]float64, m),
		Rho: make([]float64, m),
	}
}

const tagInit comm.Tag = comm.TagUser + 300

func runRank(r comm.Transport, cfg pic.Config, res *Result) {
	g := cfg.Grid
	m := g.NumPoints()
	fm := newFullMesh(g)

	// Deal particles: rank 0 generates, everyone gets a fixed (direct
	// Lagrangian) share. No alignment machinery — that is the point.
	r.SetPhase(machine.PhaseRedistribute)
	var store *particle.Store
	if r.Rank() == 0 {
		var global *particle.Store
		if cfg.CustomParticles != nil {
			global = cfg.CustomParticles.Clone()
		} else {
			var err error
			global, err = particle.Generate(particle.Config{
				N: cfg.NumParticles, Lx: g.Lx, Ly: g.Ly,
				Distribution: cfg.Distribution, Seed: cfg.Seed,
				Thermal: cfg.Thermal, Drift: cfg.Drift,
				Charge: cfg.MacroCharge, Mass: 1,
			})
			if err != nil {
				panic(err)
			}
		}
		for dst := r.Size() - 1; dst >= 0; dst-- {
			lo, hi := mesh.BlockRange(global.Len(), r.Size(), dst)
			if dst == 0 {
				store = particle.NewStore(hi-lo, global.Charge, global.Mass)
				store.AppendRange(global, lo, hi)
				continue
			}
			comm.SendFloat64s(r, dst, tagInit, global.MarshalRange(nil, lo, hi))
		}
	} else {
		wire := comm.RecvFloat64s(r, 0, tagInit)
		store = particle.NewStore(len(wire)/particle.WireFloats, cfg.MacroCharge, 1)
		if err := store.AppendWire(wire); err != nil {
			panic(err)
		}
	}
	comm.Barrier(r)
	start := r.Clock().Now()

	// The field solve is row-partitioned; rows [j0, j1) belong to this rank.
	j0, j1 := mesh.BlockRange(g.Ny, r.Size(), r.Rank())

	// Three phases and no redistribution — that is the point.
	for iter := 0; iter < cfg.Iterations; iter++ {
		scatterReplicated(r, g, fm, store)
		fieldSolveReplicated(r, g, fm, j0, j1, cfg.Dt)
		gatherPushReplicated(r, g, fm, store, cfg.Dt)
		r.SetPhase(machine.PhaseCommSetup)
		comm.Barrier(r)
	}

	total := comm.ExposeMaxFloat64(r, r.Clock().Now()-start)
	kinetic := comm.ExposeSumFloat64(r, store.KineticEnergy())
	if r.Rank() == 0 {
		res.TotalTime = total
		res.FinalKineticEnergy = kinetic
		fieldE := 0.0
		for i := 0; i < m; i++ {
			fieldE += fm.Ex[i]*fm.Ex[i] + fm.Ey[i]*fm.Ey[i] + fm.Ez[i]*fm.Ez[i] +
				fm.Bx[i]*fm.Bx[i] + fm.By[i]*fm.By[i] + fm.Bz[i]*fm.Bz[i]
		}
		res.FinalFieldEnergy = fieldE / 2
	}
}

// scatterReplicated deposits into the local full-mesh copy and element-wise
// sums J and Rho over all processors — the global operation Lubeck and
// Faber identified as the scalability bottleneck.
func scatterReplicated(r comm.Transport, g mesh.Grid, fm *fullMesh, s *particle.Store) {
	r.SetPhase(machine.PhaseScatter)
	for i := range fm.Jx {
		fm.Jx[i], fm.Jy[i], fm.Jz[i], fm.Rho[i] = 0, 0, 0, 0
	}
	for i := 0; i < s.Len(); i++ {
		w := pusher.Weights(g, s.X[i], s.Y[i], 0)
		gamma := s.Gamma(i)
		vx, vy, vz := s.Px[i]/gamma, s.Py[i]/gamma, s.Pz[i]/gamma
		for k, off := range pusher.VertexOffsets[:4] {
			gid := g.PointIndex(w.CX+off[0], w.CY+off[1], 0)
			wq := w.W[k] * s.Charge
			fm.Jx[gid] += wq * vx
			fm.Jy[gid] += wq * vy
			fm.Jz[gid] += wq * vz
			fm.Rho[gid] += wq
		}
	}
	r.Compute(s.Len() * 4 * pusher.ScatterWorkPerVertex)

	// Global element-wise sum of the source arrays (4·m values).
	// The reduction result is a broadcast body shared by all ranks, so
	// copy it into owned storage before anyone mutates their replica.
	copy(fm.Jx, comm.AllreduceSumFloat64s(r, fm.Jx))
	copy(fm.Jy, comm.AllreduceSumFloat64s(r, fm.Jy))
	copy(fm.Jz, comm.AllreduceSumFloat64s(r, fm.Jz))
	copy(fm.Rho, comm.AllreduceSumFloat64s(r, fm.Rho))
}

// fieldSolveWork mirrors the distributed solver's per-point cost.
const fieldSolveWork = 24

// fieldSolveReplicated updates rows [j0, j1) of the replica with the same
// central-difference scheme as the distributed solver, then globally
// concatenates the six field components so every rank again holds the full
// mesh.
func fieldSolveReplicated(r comm.Transport, g mesh.Grid, fm *fullMesh, j0, j1 int, dt float64) {
	r.SetPhase(machine.PhaseFieldSolve)
	nx := g.Nx
	rows := j1 - j0
	// Allgather needs equal block sizes; pad every rank's buffer to the
	// largest row count (the tail stays zero and is ignored on unpack).
	maxRows := (g.Ny + r.Size() - 1) / r.Size()
	// Update E on owned rows from the (globally consistent) B replica.
	eBuf := make([]float64, 3*maxRows*nx)
	for j := j0; j < j1; j++ {
		for i := 0; i < nx; i++ {
			c := j*nx + i
			xm, xp := g.PointIndex(i-1, j, 0), g.PointIndex(i+1, j, 0)
			ym, yp := g.PointIndex(i, j-1, 0), g.PointIndex(i, j+1, 0)
			dBzDy := (fm.Bz[yp] - fm.Bz[ym]) / 2
			dBzDx := (fm.Bz[xp] - fm.Bz[xm]) / 2
			dByDx := (fm.By[xp] - fm.By[xm]) / 2
			dBxDy := (fm.Bx[yp] - fm.Bx[ym]) / 2
			o := ((j-j0)*nx + i) * 3
			eBuf[o] = fm.Ex[c] + dt*(dBzDy-fm.Jx[c])
			eBuf[o+1] = fm.Ey[c] + dt*(-dBzDx-fm.Jy[c])
			eBuf[o+2] = fm.Ez[c] + dt*(dByDx-dBxDy-fm.Jz[c])
		}
	}
	r.Compute(rows * nx * fieldSolveWork)
	// Global concatenation of the new E (3·m values), then install.
	allE := comm.AllgatherFloat64s(r, eBuf)
	installRows3(g, r.Size(), maxRows, allE, fm.Ex, fm.Ey, fm.Ez)
	wire.Put(allE)

	bBuf := make([]float64, 3*maxRows*nx)
	for j := j0; j < j1; j++ {
		for i := 0; i < nx; i++ {
			c := j*nx + i
			xm, xp := g.PointIndex(i-1, j, 0), g.PointIndex(i+1, j, 0)
			ym, yp := g.PointIndex(i, j-1, 0), g.PointIndex(i, j+1, 0)
			dEzDy := (fm.Ez[yp] - fm.Ez[ym]) / 2
			dEzDx := (fm.Ez[xp] - fm.Ez[xm]) / 2
			dEyDx := (fm.Ey[xp] - fm.Ey[xm]) / 2
			dExDy := (fm.Ex[yp] - fm.Ex[ym]) / 2
			o := ((j-j0)*nx + i) * 3
			bBuf[o] = fm.Bx[c] + dt*(-dEzDy)
			bBuf[o+1] = fm.By[c] + dt*(dEzDx)
			bBuf[o+2] = fm.Bz[c] + dt*(-(dEyDx - dExDy))
		}
	}
	r.Compute(rows * nx * fieldSolveWork)
	allB := comm.AllgatherFloat64s(r, bBuf)
	installRows3(g, r.Size(), maxRows, allB, fm.Bx, fm.By, fm.Bz)
	wire.Put(allB)
}

// installRows3 unpacks an allgathered per-rank row-block buffer of 3
// interleaved components (padded to maxRows rows per rank) into the replica
// arrays.
func installRows3(g mesh.Grid, p, maxRows int, all []float64, c0, c1, c2 []float64) {
	nx := g.Nx
	block := 3 * maxRows * nx
	for rank := 0; rank < p; rank++ {
		j0, j1 := mesh.BlockRange(g.Ny, p, rank)
		buf := all[rank*block:]
		for j := j0; j < j1; j++ {
			for i := 0; i < nx; i++ {
				o := ((j-j0)*nx + i) * 3
				c := j*nx + i
				c0[c] = buf[o]
				c1[c] = buf[o+1]
				c2[c] = buf[o+2]
			}
		}
	}
}

// gatherPushReplicated interpolates from the local replica (no
// communication) and pushes.
func gatherPushReplicated(r comm.Transport, g mesh.Grid, fm *fullMesh, s *particle.Store, dt float64) {
	r.SetPhase(machine.PhaseGather)
	for i := 0; i < s.Len(); i++ {
		w := pusher.Weights(g, s.X[i], s.Y[i], 0)
		var ex, ey, ez, bx, by, bz float64
		for k, off := range pusher.VertexOffsets[:4] {
			gid := g.PointIndex(w.CX+off[0], w.CY+off[1], 0)
			wk := w.W[k]
			ex += wk * fm.Ex[gid]
			ey += wk * fm.Ey[gid]
			ez += wk * fm.Ez[gid]
			bx += wk * fm.Bx[gid]
			by += wk * fm.By[gid]
			bz += wk * fm.Bz[gid]
		}
		pusher.BorisPush(s, i, ex, ey, ez, bx, by, bz, dt)
	}
	r.Compute(s.Len() * 4 * pusher.GatherWorkPerVertex)

	r.SetPhase(machine.PhasePush)
	pusher.MoveRange(s, 0, s.Len(), g, dt)
	r.Compute(s.Len() * pusher.PushWorkPerParticle)
}
