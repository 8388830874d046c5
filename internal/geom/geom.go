// Package geom is the dimension seam of the simulation core: everything
// the PIC pipeline needs to know about space — cell enumeration and SFC
// keying, the interpolation footprint of a particle, grid-point ownership
// and the neighbour stencil, particle generation/movement, and the field
// substrate — behind one Geometry interface that internal/mesh (2-D) and
// internal/mesh3 (3-D) both satisfy.
//
// The engine pipeline, the transport decorator stack, the policy triggers
// and the incremental redistribution machinery never mention a dimension;
// they compose over a Geometry, so a 3-D run goes through the exact same
// phases, tags and tables as a 2-D run. Adding another geometry (a new
// dimensionality, an adaptive mesh, a different SFC family) means
// implementing this interface — not rewriting the pipeline.
package geom

import (
	"picpar/internal/comm"
	"picpar/internal/par"
	"picpar/internal/particle"
)

// MaxVertices is the largest interpolation footprint any geometry produces
// (8 = trilinear CIC in 3-D); Footprint arrays are sized to it so the hot
// loops stay allocation-free.
const MaxVertices = 8

// KeyAssignWorkPerParticle is the modelled δ units to index one particle
// (cell computation plus one table lookup), identical across dimensions.
const KeyAssignWorkPerParticle = 4

// Footprint is the interpolation footprint of one particle: the global ids
// of the N vertex grid points of its cell and their CIC weights. It is
// filled in place by Geometry.Footprint so per-particle loops allocate
// nothing.
type Footprint struct {
	N   int
	Gid [MaxVertices]int32
	W   [MaxVertices]float64
}

// Arrays exposes the field component storage of a Fields implementation in
// halo layout. The scatter and gather hot loops index these slices directly
// (via Fields.Slot) instead of going through per-point interface calls.
type Arrays struct {
	Ex, Ey, Ez []float64
	Bx, By, Bz []float64
	Jx, Jy, Jz []float64
	Rho        []float64
}

// Fields is one rank's field substrate as the pipeline sees it: source
// deposition targets, the Maxwell solve (including its halo exchanges), and
// the owned-region reductions used by diagnostics and invariant checks.
type Fields interface {
	// ZeroSources clears J and Rho before a scatter phase.
	ZeroSources()
	// Slot maps a global grid-point id to its offset in the Arrays slices,
	// or −1 when the point is not owned by this rank.
	Slot(gid int) int
	// Arrays returns the component storage (stable for the Fields' lifetime).
	Arrays() *Arrays
	// Solve advances Maxwell's equations one leapfrog step, exchanging halos
	// with the neighbour ranks and charging compute costs to r.
	Solve(r comm.Transport, dt float64)
	// Energy returns this rank's field energy over owned points.
	Energy() float64
	// SumRho returns the deposited charge over owned points.
	SumRho() float64
}

// GenConfig parameterises the initial particle population of a run,
// dimension-independently; the geometry supplies the domain extents.
type GenConfig struct {
	N            int
	Distribution string
	Seed         int64
	Thermal      float64
	Drift        float64
	Charge       float64
}

// Geometry is the seam between the simulation pipeline and space. One
// Geometry value is built per run (before ranks launch) and shared
// read-only by all ranks; NewFields is the only per-rank factory.
type Geometry interface {
	// Dims returns the spatial dimensionality (2 or 3).
	Dims() int
	// NumPoints returns the number of global grid points.
	NumPoints() int
	// NumCells returns the number of global cells — the size of the SFC key
	// space (every key AssignKeys/CellKey produces lies in [0, NumCells)).
	NumCells() int
	// NumVertices returns the interpolation footprint size (4 or 8).
	NumVertices() int
	// Ranks returns the number of ranks the mesh is distributed over.
	Ranks() int

	// AssignKeys sets every particle's sort key to the SFC index of its
	// cell (the paper's "particle indexing"). Callers charge
	// KeyAssignWorkPerParticle per particle.
	AssignKeys(s *particle.Store)
	// CellKey returns particle i's SFC cell key without mutating the store
	// — the single-particle form of AssignKeys, used by the cost ledger.
	CellKey(s *particle.Store, i int) uint64
	// CellOwner returns the rank owning the cell with the given SFC key
	// (its lower-corner grid point) — the Eulerian home of that cell.
	CellOwner(key uint64) int
	// Footprint fills fp with particle i's vertex grid points and weights.
	Footprint(s *particle.Store, i int, fp *Footprint)
	// OwnerOfParticle returns the rank owning particle i's cell (its lower
	// corner grid point) — the Eulerian migration target.
	OwnerOfParticle(s *particle.Store, i int) int
	// OwnerOfPoint returns the rank owning a global grid point id.
	OwnerOfPoint(gid int) int
	// AdjacentRanks reports whether two ranks are identical or neighbours
	// (including diagonals) on the periodic processor grid — the paper's
	// "local" communication classification.
	AdjacentRanks(a, b int) bool
	// Move advances particle i's position by dt with periodic wrapping.
	Move(s *particle.Store, i int, dt float64)

	// Generate creates the global initial population for this geometry's
	// domain (a store of the matching dimensionality).
	Generate(cfg GenConfig) (*particle.Store, error)
	// NewStore returns an empty store of this geometry's dimensionality.
	NewStore(n int, charge, mass float64) *particle.Store
	// NewFields allocates rank r's field substrate. pool spreads the
	// Maxwell update sweeps over the rank's shared-memory workers
	// (bit-identical results for any pool size; nil is the 1-worker pool).
	NewFields(r int, pool *par.Pool) Fields
}
