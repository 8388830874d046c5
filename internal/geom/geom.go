// Package geom is the space layer of the simulation core: everything the
// PIC pipeline needs to know about space — cell enumeration and SFC
// keying, the interpolation footprint of a particle, grid-point ownership
// and the neighbour stencil, particle generation/movement, and the field
// substrate — behind one Geometry interface, implemented once by G over
// an internal/mesh grid of either dimensionality.
//
// The time-step loop, the transport decorator stack, the policies
// and the incremental redistribution machinery never mention a dimension;
// they compose over a Geometry, so a 3-D run goes through the exact same
// phases, tags and tables as a 2-D run. Below the interface a 2-D grid is
// the one-plane 3-D grid (Nz = 1): the range kernels loop over a cell's 4
// or 8 vertices and read a particle's z only in 3-D. Adding another
// geometry (an adaptive mesh, a different SFC family) means implementing
// this interface — not rewriting the pipeline.
package geom

import (
	"fmt"
	"slices"

	"picpar/internal/commopt"
	"picpar/internal/field"
	"picpar/internal/machine"
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
	N    int
	Gid  [MaxVertices]int32
	W    [MaxVertices]float64
	slot [MaxVertices]int32 // in a range kernel's block (see G.footprint), or ^ghost slot
	cell int                // whose targets resolve put in slot (see resolve)
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

// over is cfg as the particle generator's configuration over an lx×ly
// domain, or lx×ly×lz when lz > 0.
func (cfg GenConfig) over(lx, ly, lz float64) particle.Config {
	return particle.Config{
		N:            cfg.N,
		Lx:           lx,
		Ly:           ly,
		Lz:           lz,
		Distribution: cfg.Distribution,
		Seed:         cfg.Seed,
		Thermal:      cfg.Thermal,
		Drift:        cfg.Drift,
		Charge:       cfg.Charge,
		Mass:         1,
	}
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
	// offset; any other through its cell's footprint and ghost-table slots,
	// resolved once per run of same-cell particles. Both paths perform the
	// same floating-point operations on the same operands in the same
	// (particle, vertex) order as that per-vertex form alone would.

	// Deposit scatters charge and current onto f's sources. Contributions
	// to points f does not own accumulate in *ghostVals, four values (Jx,
	// Jy, Jz, Rho) per table slot, the table assigning slots in first-seen
	// order. Returns the number of off-processor contributions.
	Deposit(s *particle.Store, lo, hi int, f *field.Local, table commopt.DupTable, ghostVals *[]float64) (offprocOps int)
	// GatherPush interpolates E and B at each particle — from f, or for
	// points f does not own from ghostEB, six values per table slot — and
	// Boris-pushes its momentum by dt.
	GatherPush(s *particle.Store, lo, hi int, f *field.Local, table commopt.DupTable, ghostEB []float64, dt float64)
	// MoveRange advances the positions by dt with periodic wrapping.
	MoveRange(s *particle.Store, lo, hi int, dt float64)
	// ObserveCosts books each particle into led, in order: ObserveN of its
	// CellKey with base units plus perGhost for each footprint vertex f
	// does not own.
	ObserveCosts(s *particle.Store, lo, hi int, f *field.Local, led *machine.CostLedger, base, perGhost int)

	// Generate creates the global initial population for this geometry's
	// domain (a store of the matching dimensionality).
	Generate(cfg GenConfig) (*particle.Store, error)
	// Generator returns the generator of the population Generate creates,
	// for filling it chunk by chunk.
	Generator(cfg GenConfig) (*particle.Generator, error)
	// NewStore returns an empty store of this geometry's dimensionality.
	NewStore(n int, charge, mass float64) *particle.Store
	// NewFields allocates rank r's field block: source deposition
	// targets, the Maxwell solve with its halo exchanges, and the
	// owned-region reductions. pool spreads the update sweeps over the
	// rank's shared-memory workers (bit-identical results for any pool
	// size; nil is the 1-worker pool).
	NewFields(r int, pool *par.Pool) *field.Local
}

// depositOwned adds one particle's charge q and current q·v to the owned
// slots c0+off[k] with CIC weights w[k]: the interior path of Deposit.
func depositOwned(a *field.Arrays, c0 int, off []int, w []float64, q, vx, vy, vz float64) {
	jx, jy, jz, rho := a.Jx, a.Jy, a.Jz, a.Rho
	for k, o := range off {
		wq := float64(w[k] * q)
		c := c0 + o
		jx[c] += float64(wq * vx)
		jy[c] += float64(wq * vy)
		jz[c] += float64(wq * vz)
		rho[c] += wq
	}
}

// resolve makes fp, filled with a range kernel's block, the memo of cell
// that the kernel reuses while its particles stay in that cell: an unowned
// vertex's slot becomes ^s for its ghost-table slot s, from Slot (growing
// *ghostVals by four values per new slot) or, when ghostVals is nil, from
// Lookup, which must find it.
func (fp *Footprint) resolve(cell int, table commopt.DupTable, ghostVals *[]float64) {
	fp.cell = cell
	for k := 0; k < fp.N; k++ {
		if fp.slot[k] >= 0 {
			continue
		}
		gid := int(fp.Gid[k])
		slot := 0
		if ghostVals == nil {
			if slot = table.Lookup(gid); slot < 0 {
				panic(fmt.Sprintf("geom: gather miss at point %d", gid))
			}
		} else if slot = table.Slot(gid); 4*slot == len(*ghostVals) {
			if n := len(*ghostVals); n == cap(*ghostVals) { // double: the ghost set creeps
				*ghostVals = slices.Grow(*ghostVals, n+4)
			}
			*ghostVals = append(*ghostVals, 0, 0, 0, 0)
		}
		fp.slot[k] = ^int32(slot)
	}
}

// depositCell is the general path of Deposit for one particle in fp's
// resolved cell: each vertex's charge and current, with CIC weight w[k], go
// to its owned slot or its four ghost values. Returns the ghost count.
func depositCell(fp *Footprint, w []float64, a *field.Arrays, ghostVals []float64, q, vx, vy, vz float64) (ops int) {
	for k, wk := range w {
		wq := float64(wk * q)
		c := fp.slot[k]
		if c >= 0 {
			a.Jx[c] += float64(wq * vx)
			a.Jy[c] += float64(wq * vy)
			a.Jz[c] += float64(wq * vz)
			a.Rho[c] += wq
			continue
		}
		gv := ghostVals[4*^c : 4*^c+4]
		gv[0] += float64(wq * vx)
		gv[1] += float64(wq * vy)
		gv[2] += float64(wq * vz)
		gv[3] += wq
		ops++
	}
	return ops
}

// gatherOwned interpolates E and B from the owned slots c0+off[k] with CIC
// weights w[k]: the interior path of GatherPush.
func gatherOwned(a *field.Arrays, c0 int, off []int, w []float64) (ex, ey, ez, bx, by, bz float64) {
	aex, aey, aez, abx, aby, abz := a.Ex, a.Ey, a.Ez, a.Bx, a.By, a.Bz
	for k, o := range off {
		wk := w[k]
		c := c0 + o
		ex += float64(wk * aex[c])
		ey += float64(wk * aey[c])
		ez += float64(wk * aez[c])
		bx += float64(wk * abx[c])
		by += float64(wk * aby[c])
		bz += float64(wk * abz[c])
	}
	return
}

// gatherCell is the general path of GatherPush for one particle in fp's
// resolved cell: each vertex, with CIC weight w[k], reads its owned slot or
// the ghost values the scatter's table slot received.
func gatherCell(fp *Footprint, w []float64, a *field.Arrays, ghostEB []float64) (ex, ey, ez, bx, by, bz float64) {
	for k, wk := range w {
		c := fp.slot[k]
		if c >= 0 {
			ex += float64(wk * a.Ex[c])
			ey += float64(wk * a.Ey[c])
			ez += float64(wk * a.Ez[c])
			bx += float64(wk * a.Bx[c])
			by += float64(wk * a.By[c])
			bz += float64(wk * a.Bz[c])
			continue
		}
		eb := ghostEB[6*^c : 6*^c+6]
		ex += float64(wk * eb[0])
		ey += float64(wk * eb[1])
		ez += float64(wk * eb[2])
		bx += float64(wk * eb[3])
		by += float64(wk * eb[4])
		bz += float64(wk * eb[5])
	}
	return
}
