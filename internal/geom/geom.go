// Package geom is the dimension seam of the simulation core: everything
// the PIC pipeline needs to know about space — cell enumeration and SFC
// keying, the interpolation footprint of a particle, grid-point ownership
// and the neighbour stencil, particle generation/movement, and the field
// substrate — behind one Geometry interface that internal/mesh (2-D) and
// internal/mesh3 (3-D) both satisfy.
//
// The time-step loop, the transport decorator stack, the policies
// and the incremental redistribution machinery never mention a dimension;
// they compose over a Geometry, so a 3-D run goes through the exact same
// phases, tags and tables as a 2-D run. Adding another geometry (a new
// dimensionality, an adaptive mesh, a different SFC family) means
// implementing this interface — not rewriting the pipeline.
package geom

import (
	"fmt"

	"picpar/internal/comm"
	"picpar/internal/commopt"
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
// halo layout. The range kernels index these slices directly: by offset
// from the cell's lower-corner slot on the interior path, via Fields.Slot
// on the general path.
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
	// Move advances particle i's position by dt with periodic wrapping: the
	// one-particle form of MoveRange.
	Move(s *particle.Store, i int, dt float64)

	// The range kernels: the per-particle loops of the time step, run over
	// particles [lo, hi) of s inside the concrete geometry so the pipeline
	// crosses this interface once per range. f must come from this
	// geometry's NewFields. A particle whose cell has every vertex inside
	// f's owned block (and no periodic wrap) addresses the halo arrays by
	// offset; every other particle goes vertex by vertex through
	// Footprint, f.Slot and the ghost table. Both paths perform the same
	// floating-point operations on the same operands in the same (particle,
	// vertex) order as that per-vertex form alone would.

	// Deposit scatters charge and current onto f's sources. Contributions
	// to points f does not own accumulate in *ghostVals, four values (Jx,
	// Jy, Jz, Rho) per table slot, the table assigning slots in first-seen
	// order. Returns the number of off-processor contributions.
	Deposit(s *particle.Store, lo, hi int, f Fields, table commopt.DupTable, ghostVals *[]float64) (offprocOps int)
	// GatherPush interpolates E and B at each particle — from f, or for
	// points f does not own from ghostEB, six values per table slot — and
	// Boris-pushes its momentum by dt.
	GatherPush(s *particle.Store, lo, hi int, f Fields, table commopt.DupTable, ghostEB []float64, dt float64)
	// MoveRange advances the positions by dt with periodic wrapping.
	MoveRange(s *particle.Store, lo, hi int, dt float64)

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

// depositOwned adds one particle's charge q and current q·v to the owned
// slots c0+off[k] with CIC weights w[k]: the interior path of Deposit.
func depositOwned(a *Arrays, c0 int, off []int, w []float64, q, vx, vy, vz float64) {
	jx, jy, jz, rho := a.Jx, a.Jy, a.Jz, a.Rho
	for k, o := range off {
		wq := w[k] * q
		c := c0 + o
		jx[c] += wq * vx
		jy[c] += wq * vy
		jz[c] += wq * vz
		rho[c] += wq
	}
}

// depositFootprint is the general path of Deposit for one particle: each
// footprint vertex goes to its owned slot or, through the ghost table, to
// its four ghost values. Returns the number of ghost contributions.
func depositFootprint(fp *Footprint, f Fields, a *Arrays, table commopt.DupTable, ghostVals *[]float64, q, vx, vy, vz float64) int {
	ops := 0
	for k := 0; k < fp.N; k++ {
		wq := fp.W[k] * q
		gid := int(fp.Gid[k])
		if c := f.Slot(gid); c >= 0 {
			a.Jx[c] += wq * vx
			a.Jy[c] += wq * vy
			a.Jz[c] += wq * vz
			a.Rho[c] += wq
			continue
		}
		slot := table.Slot(gid)
		if 4*slot == len(*ghostVals) {
			*ghostVals = append(*ghostVals, 0, 0, 0, 0)
		}
		gv := (*ghostVals)[4*slot : 4*slot+4]
		gv[0] += wq * vx
		gv[1] += wq * vy
		gv[2] += wq * vz
		gv[3] += wq
		ops++
	}
	return ops
}

// gatherOwned interpolates E and B from the owned slots c0+off[k] with CIC
// weights w[k]: the interior path of GatherPush.
func gatherOwned(a *Arrays, c0 int, off []int, w []float64) (ex, ey, ez, bx, by, bz float64) {
	aex, aey, aez, abx, aby, abz := a.Ex, a.Ey, a.Ez, a.Bx, a.By, a.Bz
	for k, o := range off {
		wk := w[k]
		c := c0 + o
		ex += wk * aex[c]
		ey += wk * aey[c]
		ez += wk * aez[c]
		bx += wk * abx[c]
		by += wk * aby[c]
		bz += wk * abz[c]
	}
	return
}

// gatherFootprint is the general path of GatherPush for one particle: each
// footprint vertex reads its owned slot or the ghost values the scatter's
// table slot received.
func gatherFootprint(fp *Footprint, f Fields, a *Arrays, table commopt.DupTable, ghostEB []float64) (ex, ey, ez, bx, by, bz float64) {
	for k := 0; k < fp.N; k++ {
		wk := fp.W[k]
		gid := int(fp.Gid[k])
		if c := f.Slot(gid); c >= 0 {
			ex += wk * a.Ex[c]
			ey += wk * a.Ey[c]
			ez += wk * a.Ez[c]
			bx += wk * a.Bx[c]
			by += wk * a.By[c]
			bz += wk * a.Bz[c]
			continue
		}
		slot := table.Lookup(gid)
		if slot < 0 {
			panic(fmt.Sprintf("geom: gather miss at point %d", gid))
		}
		eb := ghostEB[6*slot : 6*slot+6]
		ex += wk * eb[0]
		ey += wk * eb[1]
		ez += wk * eb[2]
		bx += wk * eb[3]
		by += wk * eb[4]
		bz += wk * eb[5]
	}
	return
}
