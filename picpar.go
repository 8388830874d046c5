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
	"picpar/internal/mesh3"
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

// Grid is the global 2-D mesh geometry.
type Grid = mesh.Grid

// Grid3 is the global 3-D mesh geometry, used when Config.Dims is 3.
type Grid3 = mesh3.Grid

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
func NewGrid3(nx, ny, nz int) Grid3 { return mesh3.NewGrid(nx, ny, nz) }

// Particle distribution names for Config.Distribution.
const (
	DistUniform   = particle.DistUniform
	DistIrregular = particle.DistIrregular
	DistTwoStream = particle.DistTwoStream
	DistBeam      = particle.DistBeam
	DistSpike     = particle.DistSpike
	DistCollapse  = particle.DistCollapse
)

// Indexing scheme names for Config.Indexing.
const (
	IndexHilbert  = sfc.SchemeHilbert
	IndexSnake    = sfc.SchemeSnake
	IndexRowMajor = sfc.SchemeRowMajor
	IndexMorton   = sfc.SchemeMorton
)

// Indexer linearises the cells of a 2-D grid (see Config.Indexing).
type Indexer = sfc.Indexer

// NewIndexer builds the named space-filling-curve indexer for a w×h cell
// grid.
func NewIndexer(scheme string, w, h int) (Indexer, error) { return sfc.New(scheme, w, h) }

// StaticPolicy never redistributes particles.
func StaticPolicy() PolicyFactory { return policy.NewStatic() }

// PeriodicPolicy redistributes every k iterations.
func PeriodicPolicy(k int) PolicyFactory { return policy.NewPeriodic(k) }

// DynamicPolicy redistributes when the Stop-At-Rise condition
// (t1−t0)·(i1−i0) ≥ T_redistribution is met.
func DynamicPolicy() PolicyFactory { return policy.NewDynamic() }

// AdaptivePolicy redistributes on the Stop-At-Rise condition and, at each
// firing, rebuilds into whichever layout strategy scores the lowest
// estimated max per-rank cost on the live per-cell cost ledger.
func AdaptivePolicy() PolicyFactory { return policy.NewAdaptive() }

// AdaptivePolicyEvery is AdaptivePolicy on a fixed every-k cadence.
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
	StrategyEulerian     = policy.Eulerian
)

// ParseStrategy resolves a strategy name ("equal-count", "cost-weighted",
// "eulerian"); the empty name is equal-count.
func ParseStrategy(name string) (Strategy, error) { return policy.ParseStrategy(name) }

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

// FaultPlan is a deterministic, seeded fault-injection schedule for the
// Faulty transport decorator: per-link drop/duplicate/reorder/delay
// probabilities with optional rank, tag and phase filters.
type FaultPlan = comm.FaultPlan

// Faulty injects the faults of a FaultPlan; Reliable recovers them.
type Faulty = comm.Faulty

// NewFaulty builds a fault-injecting transport decorator from plan.
func NewFaulty(plan FaultPlan) *Faulty { return comm.NewFaulty(plan) }

// Reliable is the reliable-delivery transport decorator: it recovers
// drops, duplicates and reorderings injected by Faulty underneath it, or
// fails with a diagnostic *DeliveryError when the retry budget is
// exhausted — never by hanging.
type Reliable = comm.Reliable

// ReliableConfig tunes the reliability layer's retry budget and simulated
// backoff; the zero value selects sensible defaults.
type ReliableConfig = comm.ReliableConfig

// NewReliable builds a reliable-delivery transport decorator.
func NewReliable(cfg ReliableConfig) *Reliable { return comm.NewReliable(cfg) }

// DeliveryError is the terminal, diagnostic delivery failure: it names the
// rank, peer, tag, accounting phase and attempt count of the message that
// could not be delivered.
type DeliveryError = comm.DeliveryError

// AsDeliveryError extracts a *DeliveryError from a recovered panic value,
// or returns nil.
func AsDeliveryError(v any) *DeliveryError { return comm.AsDeliveryError(v) }

// TraceCounts is one bucket of traced traffic (messages and modelled bytes
// in each direction).
type TraceCounts = comm.TraceCounts

// Tracer records per-rank, per-phase, per-tag traffic flowing through the
// transports it wraps.
type Tracer = comm.Tracer

// NewTracer builds a traffic-tracing transport decorator.
func NewTracer() *Tracer { return comm.NewTracer() }

// TransportError is the structural-misuse failure of the comm layer:
// invalid ranks, operations on a torn-down endpoint, unencodable message
// bodies. It marks a programming error and is never retried.
type TransportError = comm.TransportError

// RankPanic wraps a panic that escaped one rank's function — including the
// typed DeliveryError/TransportError panics of the transport — so the
// launcher can report which rank failed and why.
type RankPanic = comm.RankPanic

// NetConfig describes one rank's endpoint of a TCP-backed world: the
// coordinator address, rank identity, cost-model constants, and the
// supervision timeouts (dial retry/backoff, heartbeats, drain).
type NetConfig = comm.NetConfig

// Coordinator is the rendezvous service a TCP world assembles through.
type Coordinator = comm.Coordinator

// RankProc is one spawned rank process under launcher supervision.
type RankProc = comm.RankProc

// RankFailure records how one supervised rank process exited.
type RankFailure = comm.RankFailure

// LaunchError aggregates the abnormal rank exits of one supervised launch.
type LaunchError = comm.LaunchError

// RespawnFunc builds a replacement process for a dead rank during an
// elastic run (see SuperviseRanksElastic).
type RespawnFunc = comm.RespawnFunc

// StartCoordinator binds the rendezvous listener for a world of p ranks
// with the default assembly timeout; call Serve to assemble the world.
func StartCoordinator(addr string, p int) (*Coordinator, error) {
	return comm.StartCoordinator(addr, p, 0)
}

// SuperviseRanks starts (if needed) and babysits one OS process per rank:
// on the first abnormal exit it grants the grace period for peers to print
// their own diagnostics, kills stragglers, and returns a *LaunchError
// naming every failed rank.
// An optional trailing world description (e.g. "topology neighbor-sparse,
// P=4") is carried on the LaunchError, attributing refused dials in sparse
// worlds to the world's configuration.
func SuperviseRanks(procs []*RankProc, grace time.Duration, world ...string) error {
	return comm.SuperviseRanks(procs, grace, world...)
}

// SuperviseRanksElastic is SuperviseRanks with elastic recovery: a rank
// that exits abnormally while respawn budget remains is relaunched via
// respawn instead of failing the run, and the surviving rank processes
// (running under NetRankElastic) re-assemble through the rendezvous rolled
// back to the latest complete checkpoint epoch.
func SuperviseRanksElastic(procs []*RankProc, grace time.Duration, respawn RespawnFunc, maxRespawns int, world ...string) error {
	return comm.SuperviseRanksElastic(procs, grace, respawn, maxRespawns, world...)
}

// RunNet runs this process's rank of the configured simulation over the
// TCP backend (see NetConfig). Rank 0 returns the Result; other ranks
// return (nil, nil) on success.
func RunNet(ncfg NetConfig, cfg Config) (*Result, error) { return pic.RunNet(ncfg, cfg) }

// NetRank joins a TCP world and runs fn as this process's rank, with
// crash-safe teardown; see comm.NetRank.
func NetRank(ncfg NetConfig, wrap func(Transport) Transport, fn func(Transport)) (machine.Stats, error) {
	return comm.NetRank(ncfg, wrap, fn)
}

// NetRankElastic is NetRank with rejoin-on-world-death: when the world
// dies under this rank (a peer was killed), it parks with capped backoff
// and re-registers through the rendezvous under the same rank identity
// until the world re-assembles or the rejoin budget is exhausted.
func NetRankElastic(ncfg NetConfig, wrap func(Transport) Transport, fn func(Transport)) (machine.Stats, error) {
	return comm.NetRankElastic(ncfg, wrap, fn)
}

// MachineStats is one rank's per-phase time and traffic ledger.
type MachineStats = machine.Stats

// Topology names accepted by Config.Topology: the classic any-to-any
// full mesh, the two sparse link sets (neighbor-sparse direct exchange,
// systolic-ring pulsed exchange), and the hierarchical host/gateway
// transport ("hierarchical" or "hierarchical:H"). Physics is identical
// under every topology.
const (
	TopologyFullMesh       = pic.TopologyFullMesh
	TopologyNeighborSparse = pic.TopologyNeighborSparse
	TopologySystolicRing   = pic.TopologySystolicRing
	TopologyHierarchical   = pic.TopologyHierarchical
)

// Topology is the comm layer's link-set descriptor: which rank pairs may
// exchange point-to-point messages. The TCP backend assembles exactly its
// links (O(P·k) sockets for sparse descriptors); the goroutine backend
// enforces it with typed errors on out-of-topology sends.
type Topology = comm.Topology

// TopologyError reports a send or receive outside the world's topology; it
// unwraps to ErrOutOfTopology and names the rank, peer and peer set.
type TopologyError = comm.TopologyError

// ErrOutOfTopology is the sentinel every TopologyError wraps.
var ErrOutOfTopology = comm.ErrOutOfTopology

// TopologyFor builds the comm.Topology descriptor cfg's Topology field
// names (sized for cfg.P) — what NetConfig.Topology expects when
// assembling a sparse TCP world by hand. Hierarchical is rejected: it
// replaces the transport rather than the link set (use Run).
func TopologyFor(cfg Config) (*Topology, error) { return pic.TopologyFor(cfg) }

// NewFullMesh, NewRing and NewNeighborSparse build topology descriptors
// directly at the comm layer. Every descriptor includes the collective
// skeleton (±2^k ring offsets), so collectives run unchanged on all of
// them.
func NewFullMesh(p int) *Topology { return comm.NewFullMesh(p) }

// NewRing builds the pure ring descriptor (the collective skeleton alone).
func NewRing(p int) *Topology { return comm.NewRing(p) }

// NewNeighborSparse builds the descriptor whose links are the pairs the
// adjacent predicate admits, plus the collective skeleton.
func NewNeighborSparse(p int, adjacent func(a, b int) bool) *Topology {
	return comm.NewNeighborSparse(p, adjacent)
}

// SocketCount reports the number of live TCP peer connections beneath a
// (possibly decorated) transport, and whether the transport is TCP-backed
// at all — the measured quantity behind the O(P²) → O(P·k) traffic gate.
func SocketCount(t Transport) (int, bool) { return comm.SocketCount(t) }
