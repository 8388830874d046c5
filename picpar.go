// Package picpar is a Go reproduction of "Dynamic Alignment and
// Distribution of Irregularly Coupled Data Arrays for Scalable
// Parallelization of Particle-in-Cell Problems" (Liao, Ou, Ranka,
// IPPS 1996).
//
// It provides a complete relativistic electromagnetic particle-in-cell
// simulation — 2d3v by default, 3d3v with Config.Dims = 3 over the same
// dimension-generic pipeline — parallelised over an SPMD runtime of
// goroutine "ranks" with a hand-rolled message-passing layer, and — the
// paper's contribution — the machinery that keeps the two irregularly
// coupled data arrays (particles and mesh fields) aligned, balanced and
// cheap to communicate between:
//
//   - Hilbert (and snake/row-major/Morton) space-filling-curve particle
//     ordering aligned with an SFC-numbered BLOCK mesh distribution,
//   - bucket-based incremental sorting for fast particle redistribution,
//   - order-maintaining load balancing,
//   - static / periodic / dynamic (Stop-At-Rise) redistribution policies,
//   - ghost-point communication with duplicate-access removal and message
//     coalescing.
//
// Quick start:
//
//	res, err := picpar.Run(picpar.Config{
//		Grid:         picpar.NewGrid(128, 64),
//		P:            32,
//		NumParticles: 32768,
//		Distribution: picpar.DistIrregular,
//		Iterations:   200,
//		Policy:       picpar.DynamicPolicy(),
//	})
//
// Execution times in Result are simulated seconds under a two-level
// (τ, μ, δ) cost model defaulting to CM-5-like constants, which is what
// makes the paper's published trade-offs reproducible on any host.
package picpar

import (
	"time"

	"picpar/internal/comm"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/pic"
	"picpar/internal/policy"
	"picpar/internal/sfc"
)

// Config describes a simulation run. See the field documentation in
// internal/pic for details; zero values select sensible defaults (Hilbert
// indexing, static policy, CM-5 machine constants, direct address table).
type Config = pic.Config

// Result aggregates a run's measurements: per-iteration records, total and
// per-phase times, overhead, efficiency, and redistribution counts.
type Result = pic.Result

// IterationRecord is one iteration's measurements (max over ranks).
type IterationRecord = pic.IterationRecord

// Grid is the global mesh geometry: Nx×Ny×Nz points, a 2-D mesh being the
// one plane Nz = 1.
type Grid = mesh.Grid

// Grid3 names Grid where it is the 3-D mesh, used when Config.Dims is 3.
type Grid3 = mesh.Grid

// MachineParams are the two-level cost-model constants (τ, μ, δ).
type MachineParams = machine.Params

// PolicyFactory constructs per-rank redistribution policies.
type PolicyFactory = policy.Factory

// Run executes a simulation.
func Run(cfg Config) (*Result, error) { return pic.Run(cfg) }

// NewGrid builds an Nx×Ny mesh with unit cells.
func NewGrid(nx, ny int) Grid { return mesh.NewGrid(nx, ny) }

// NewGrid3 builds an Nx×Ny×Nz mesh with unit cells; set Config.Dims to 3
// and Config.Grid3 to run the same pipeline in three dimensions.
func NewGrid3(nx, ny, nz int) Grid3 { return mesh.NewGrid3(nx, ny, nz) }

// Particle distribution names for Config.Distribution.
const (
	DistUniform   = particle.DistUniform
	DistIrregular = particle.DistIrregular
	DistTwoStream = particle.DistTwoStream
	DistBeam      = particle.DistBeam
	DistSpike     = particle.DistSpike
)

// Indexing scheme names for Config.Indexing.
const (
	IndexHilbert  = sfc.SchemeHilbert
	IndexSnake    = sfc.SchemeSnake
	IndexRowMajor = sfc.SchemeRowMajor
	IndexMorton   = sfc.SchemeMorton
)

// Indexer linearises the cells of a grid (see Config.Indexing): Index
// takes (x, y, z), and a 2-D grid is the plane z = 0.
type Indexer = sfc.Indexer

// NewIndexer builds the named space-filling-curve indexer for a w×h cell
// grid, the plane z = 0.
func NewIndexer(scheme string, w, h int) (Indexer, error) { return sfc.New(scheme, w, h) }

// StaticPolicy never redistributes particles.
func StaticPolicy() PolicyFactory { return policy.NewStatic() }

// PeriodicPolicy redistributes every k iterations.
func PeriodicPolicy(k int) PolicyFactory { return policy.NewPeriodic(k) }

// DynamicPolicy redistributes when the Stop-At-Rise condition
// (t1−t0)·(i1−i0) ≥ T_redistribution is met.
func DynamicPolicy() PolicyFactory { return policy.NewDynamic() }

// AdaptivePolicyEvery redistributes every k iterations and, at each firing,
// rebuilds into whichever layout strategy scores the lowest estimated max
// per-rank cost on the live per-cell cost ledger.
func AdaptivePolicyEvery(k int) PolicyFactory { return policy.NewAdaptiveEvery(k) }

// Strategy names a particle layout: how the globally sorted sequence is
// split (equal-count or cost-weighted) and how particles move (Lagrangian
// redistribution or Eulerian migration). The zero value is the classic
// equal-count Lagrangian layout — the byte-identical default.
type Strategy = policy.Strategy

// The named layout strategies.
var (
	StrategyEqualCount   = policy.EqualCount
	StrategyCostWeighted = policy.CostWeighted
)

// WithStrategy pins the layout strategy a policy's firings decide, for
// policies that support one (Periodic, Dynamic); Static passes through.
func WithStrategy(f PolicyFactory, s Strategy) PolicyFactory { return policy.WithStrategy(f, s) }

// CM5Machine returns CM-5-like cost-model constants (the paper's testbed).
func CM5Machine() MachineParams { return machine.CM5() }

// ModernMachine returns contemporary-cluster cost-model constants.
func ModernMachine() MachineParams { return machine.Modern() }

// Transport is the per-rank message-passing interface; Config.Transport
// accepts a decorator chain over it (see DESIGN.md "The decorator stack").
type Transport = comm.Transport

// NetConfig describes one rank's endpoint of a TCP-backed world: the
// coordinator address, rank identity, cost-model constants, and the
// supervision timeouts (dial retry/backoff, heartbeats, drain).
type NetConfig = comm.NetConfig

// Coordinator is the rendezvous service a TCP world assembles through.
type Coordinator = comm.Coordinator

// RankProc is one spawned rank process under launcher supervision.
type RankProc = comm.RankProc

// RespawnFunc builds a replacement process for a dead rank during an
// elastic run (see SuperviseRanks).
type RespawnFunc = comm.RespawnFunc

// StartCoordinator binds the rendezvous listener for a world of p ranks
// with the default assembly timeout; call Serve (one-shot) or ServeElastic
// (re-assembly rounds for recovering ranks) to assemble the world.
func StartCoordinator(addr string, p int) (*Coordinator, error) {
	return comm.StartCoordinator(addr, p, 0)
}

// SuperviseRanks starts (if needed) and babysits one OS process per rank.
// A rank that exits abnormally while respawn budget remains is relaunched
// via respawn, and the surviving rank processes re-assemble through the
// rendezvous rolled back to the latest complete checkpoint epoch. With a
// nil respawn or a spent budget, the first abnormal exit grants the grace
// period for peers to print their own diagnostics, kills stragglers, and
// returns an error naming every failed rank. An optional trailing world
// description (e.g. "topology neighbor-sparse, P=4") is carried on that
// error, attributing refused dials in sparse worlds to the world's
// configuration.
func SuperviseRanks(procs []*RankProc, grace time.Duration, respawn RespawnFunc, maxRespawns int, world ...string) error {
	return comm.SuperviseRanks(procs, grace, respawn, maxRespawns, world...)
}

// RunNet runs this process's rank of the configured simulation over the
// TCP backend (see NetConfig). Rank 0 returns the Result; other ranks
// return (nil, nil) on success.
func RunNet(ncfg NetConfig, cfg Config) (*Result, error) { return pic.RunNet(ncfg, cfg) }
