// Package pic assembles the substrates into the paper's full parallel PIC
// simulation: independent partitioning (BLOCK mesh + SFC-ordered
// particles), direct Lagrangian particle movement between redistributions,
// the four-phase time step (scatter, field solve, gather, push) with
// ghost-point communication, and policy-driven dynamic redistribution via
// bucket-based incremental sorting.
package pic

import (
	"fmt"
	"math"
	"time"

	"picpar/internal/ckpt"
	"picpar/internal/comm"
	"picpar/internal/commopt"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/par"
	"picpar/internal/particle"
	"picpar/internal/policy"
	"picpar/internal/sfc"
)

// Config describes one simulation run.
type Config struct {
	// Dims selects the spatial dimensionality: 2 (default) or 3. The whole
	// pipeline — phases, transport decorators, policies, redistribution —
	// is dimension-generic over the geometry seam (internal/geom); Dims
	// only picks which geometry is built.
	Dims int
	// Grid is the global 2-D mesh, one plane (Nz = 1; an unset Nz and Lz
	// mean 1); zero value means 64×32. Used when Dims == 2.
	Grid mesh.Grid
	// Grid3 is the global 3-D mesh, Nz ≥ 2; zero value means 16×16×16.
	// Used when Dims == 3.
	Grid3 mesh.Grid
	// P is the number of ranks (processors).
	P int
	// NumParticles is the global particle count n.
	NumParticles int
	// Distribution selects the initial particle distribution
	// (particle.DistUniform, DistIrregular, DistTwoStream, DistBeam,
	// DistSpike, DistCollapse).
	Distribution string
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// Iterations is the number of PIC time steps.
	Iterations int
	// Dt is the time step; default 0.2 (CFL-safe for unit cells, c=1).
	Dt float64
	// Indexing selects the particle ordering (sfc.SchemeHilbert,
	// SchemeSnake, SchemeRowMajor, SchemeMorton); default Hilbert.
	Indexing string
	// Policy creates the redistribution decision policy; default Static.
	Policy policy.Factory
	// Table selects the duplicate-removal structure (commopt.TableDirect
	// or TableHash); default direct.
	Table string
	// Topology names the communication link set (see topology.go): "" or
	// "full-mesh" (the classic any-to-any world) or "neighbor-sparse"
	// (links only between spatially adjacent ranks plus the collective
	// skeleton; far payloads ride a systolic relay). Charge and particle
	// count are conserved under both; simulated times differ whenever the
	// relay fires, and so does the final state when the layout reads the
	// simulated clock (cost-weighted).
	Topology string
	// Workers is the number of shared-memory workers each rank spreads its
	// physics kernels over (gather/push, move, Maxwell sweeps, radix sorts;
	// the scatter deposit stays one sequential range kernel). 0 means
	// $PICPAR_PROCS, defaulting to 1 (sequential).
	// Results are bit-identical for every worker count: the parallel kernels
	// reproduce the sequential accumulation order exactly, and the simulated
	// machine.Clock charges never depend on Workers.
	Workers int
	// Machine gives the cost-model constants; zero value means CM5.
	Machine machine.Params
	// MeshDist1D selects a 1-D (row) BLOCK mesh distribution instead of
	// the default 2-D blocks.
	MeshDist1D bool
	// Eulerian selects the direct Eulerian method on grid partitioning
	// (the Gledhill–Storey baseline of Section 3): every particle lives on
	// the rank owning its cell and migrates whenever it crosses a block
	// boundary. Communication stays local but the particle load follows
	// the (possibly irregular) density. The redistribution Policy is
	// ignored in this mode.
	Eulerian bool
	// Thermal and Drift parameterise the particle generator (pass-through;
	// zero values default to Thermal 0.3 and the generator's drift).
	Thermal, Drift float64
	// MacroCharge is the per-macroparticle charge; default −0.02 (keeps
	// space-charge fields mild at the paper's densities).
	MacroCharge float64
	// Diagnostics enables energy histories (field + kinetic) every
	// DiagEvery iterations (default 10).
	Diagnostics bool
	DiagEvery   int
	// Verify enables per-iteration invariant checks (global charge
	// conservation on the mesh, particle-count conservation) right after
	// the scatter; violations panic. Intended for tests. The checks move no
	// payload, but their two out-of-band sums charge Expose's barriers —
	// four per iteration, to the comm-setup phase — so modelled times
	// include them (the goldens are Verify runs).
	Verify bool
	// CustomParticles, when non-nil, is used as the global initial
	// population instead of the built-in generator (Distribution, Seed,
	// Thermal and Drift are then ignored; NumParticles is derived from
	// it). The store is not mutated — the simulation works on a copy.
	// Every position must lie inside the periodic domain [0, L) and every
	// momentum be finite, or the run is refused with a *ParticleError.
	CustomParticles *particle.Store
	// Transport, when non-nil, decorates every rank's transport endpoint
	// (comm.World.RunWrapped semantics), e.g. a comm.Tracer's Wrap to count
	// the run's traffic per phase and tag.
	Transport func(comm.Transport) comm.Transport
	// Watchdog, when positive, arms the deadlock watchdog on the world
	// (comm.World.SetWatchdog) so a stuck protocol fails with a diagnostic
	// instead of hanging.
	Watchdog time.Duration

	// CheckpointDir, when non-empty, enables checkpointing: every
	// CheckpointEvery completed iterations each rank atomically writes its
	// restart shard (internal/ckpt) into the directory's epoch layout.
	// Checkpoint I/O is real-world only — it adds zero simulated-clock
	// charges and no communication, so all goldens hold with it enabled.
	// Defaults to $PICPAR_CKPT_DIR (empty = checkpointing off).
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in iterations; default 10
	// when CheckpointDir is set.
	CheckpointEvery int
	// CheckpointKeep bounds retention: the newest complete epochs kept
	// after each checkpoint (older ones are pruned by rank 0); default 2.
	CheckpointKeep int
	// Recover makes the run restore from the latest complete checkpoint
	// epoch in CheckpointDir (agreed across ranks) before iterating, and —
	// under the TCP backend — rejoin elastically when the world dies
	// (comm.NetConfig.RejoinAttempts). With no usable epoch the run starts from
	// scratch, byte-identically to a non-recovering run.
	Recover bool

	// OnIteration, when non-nil, is invoked on rank 0 after each
	// iteration's record is final (post-iteration redistribution included).
	// It is a real-world diagnostics hook — the picserve daemon streams
	// these records to HTTP subscribers — and adds zero simulated charges
	// and no communication, so goldens hold with it installed. The callback
	// runs on the simulation's critical path: implementations must not
	// block (drop, don't stall).
	OnIteration func(IterationRecord)
	// StopRequested, when non-nil, is polled once per iteration; when any
	// rank's poll returns true the whole world agrees (the flag rides the
	// existing out-of-band measurement exchange, so the agreement is free
	// and deterministic), writes a final checkpoint epoch at the current
	// iteration boundary (when checkpointing is configured) and returns
	// early with Result.Stopped set. A stopped run is resumable: rerunning
	// the same Config with Recover restores that epoch and finishes
	// byte-identically to an undisturbed run. This is the graceful-drain
	// hook of the picserve daemon (SIGTERM: checkpoint, then exit).
	StopRequested func() bool
}

// withDefaults fills zero fields; a supplied CustomParticles population
// overrides NumParticles and (when it carries one) MacroCharge.
func (c Config) withDefaults() Config {
	if c.CustomParticles != nil {
		c.NumParticles = c.CustomParticles.Len()
		if c.CustomParticles.Charge != 0 {
			c.MacroCharge = c.CustomParticles.Charge
		}
	}
	if c.Dims == 0 {
		c.Dims = 2
	}
	if c.Dims == 2 && c.Grid.Nx == 0 {
		c.Grid = mesh.NewGrid(64, 32)
	}
	if c.Dims == 2 && c.Grid.Nz == 0 && c.Grid.Lz == 0 {
		c.Grid.Nz, c.Grid.Lz = 1, 1
	}
	if c.Dims == 3 && c.Grid3.Nx == 0 {
		c.Grid3 = mesh.NewGrid3(16, 16, 16)
	}
	if c.P == 0 {
		c.P = 4
	}
	if c.Dt == 0 {
		c.Dt = 0.2
	}
	if c.Indexing == "" {
		c.Indexing = sfc.SchemeHilbert
	}
	if c.Policy == nil {
		c.Policy = policy.NewStatic()
	}
	if c.Table == "" {
		c.Table = commopt.TableDirect
	}
	if c.Machine == (machine.Params{}) {
		c.Machine = machine.CM5()
	}
	if c.Distribution == "" {
		c.Distribution = particle.DistUniform
	}
	if c.Thermal == 0 {
		c.Thermal = 0.3
	}
	if c.MacroCharge == 0 {
		c.MacroCharge = -0.02
	}
	if c.DiagEvery == 0 {
		c.DiagEvery = 10
	}
	if c.Workers == 0 {
		c.Workers = par.EnvProcs(1)
	}
	if c.CheckpointDir == "" {
		c.CheckpointDir = ckpt.EnvDir("")
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10
	}
	if c.CheckpointKeep == 0 {
		c.CheckpointKeep = 2
	}
	return c
}

// grid is the run's mesh: Grid in 2-D, Grid3 in 3-D.
func (c Config) grid() mesh.Grid {
	if c.Dims == 3 {
		return c.Grid3
	}
	return c.Grid
}

// validate rejects configurations the substrates cannot represent. It does
// no per-cell work: the grid validates its own extents, and the indexing
// scheme is checked on a one-cell box, so the run's cell curve is built
// once, by newGeometry.
func (c Config) validate() error {
	g := c.grid()
	switch c.Dims {
	case 2:
		if _, err := sfc.New(c.Indexing, 1, 1); err != nil {
			return err
		}
	case 3:
		if _, err := sfc.New3(c.Indexing, 1, 1, 1); err != nil {
			return err
		}
		if c.MeshDist1D {
			return fmt.Errorf("pic: MeshDist1D is a 2-D mesh option (Dims 3 given)")
		}
	default:
		return fmt.Errorf("pic: unsupported dimensionality %d (want 2 or 3)", c.Dims)
	}
	if err := g.Validate(); err != nil {
		return err
	}
	if g.Dims() != c.Dims {
		return fmt.Errorf("pic: a %d-D run on a %dx%dx%d grid (a one-plane grid is the 2-D grid)", c.Dims, g.Nx, g.Ny, g.Nz)
	}
	if s := c.CustomParticles; s != nil {
		if s.Dims() != c.Dims {
			return fmt.Errorf("pic: CustomParticles are %d-D but Dims is %d", s.Dims(), c.Dims)
		}
		extent := [3]float64{g.Lx, g.Ly}
		if c.Dims == 3 {
			extent[2] = g.Lz
		}
		if err := checkParticles(s, extent); err != nil {
			return err
		}
	}
	if c.P <= 0 {
		return fmt.Errorf("pic: non-positive rank count %d", c.P)
	}
	if c.NumParticles < 0 {
		return fmt.Errorf("pic: negative particle count %d", c.NumParticles)
	}
	if c.Iterations < 0 {
		return fmt.Errorf("pic: negative iteration count %d", c.Iterations)
	}
	if c.Workers < 0 {
		return fmt.Errorf("pic: negative worker count %d", c.Workers)
	}
	if c.Dt <= 0 || c.Dt > 0.7 {
		return fmt.Errorf("pic: dt %g outside the stable range (0, 0.7]", c.Dt)
	}
	if _, err := commopt.NewTable(c.Table, 1, 1); err != nil {
		return err
	}
	if _, err := parseTopology(c.Topology); err != nil {
		return err
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("pic: negative checkpoint cadence %d", c.CheckpointEvery)
	}
	if c.CheckpointKeep < 0 {
		return fmt.Errorf("pic: negative checkpoint retention %d", c.CheckpointKeep)
	}
	if c.Recover && c.CheckpointDir == "" {
		return fmt.Errorf("pic: Recover needs a CheckpointDir (or $PICPAR_CKPT_DIR)")
	}
	return nil
}

// ParticleError reports the first CustomParticles entry a run cannot hold:
// a position outside the periodic domain [0, L) — the periodic wrap would
// loop forever on an infinite or huge one, and a finite one just outside
// would deposit with its cell and its weights taken from different
// coordinates — or a non-finite momentum.
type ParticleError struct {
	Index int     // position of the particle in the store
	Field string  // "x", "y", "z", "px", "py" or "pz"
	Value float64 // the offending value
}

func (e *ParticleError) Error() string {
	return fmt.Sprintf("pic: CustomParticles[%d].%s = %g: want a position in [0, L) and a finite momentum",
		e.Index, e.Field, e.Value)
}

// checkParticles returns a *ParticleError for the first particle of s
// outside the domain of the given extents or with a non-finite momentum.
func checkParticles(s *particle.Store, extent [3]float64) error {
	pos := [3][]float64{s.X, s.Y, s.Z} // Z is nil in 2-D
	mom := [3][]float64{s.Px, s.Py, s.Pz}
	for i := 0; i < s.Len(); i++ {
		for d, name := range [3]string{"x", "y", "z"} {
			if pos[d] != nil && !(pos[d][i] >= 0 && pos[d][i] < extent[d]) {
				return &ParticleError{Index: i, Field: name, Value: pos[d][i]}
			}
		}
		for d, name := range [3]string{"px", "py", "pz"} {
			if v := mom[d][i]; math.IsNaN(v) || math.IsInf(v, 0) {
				return &ParticleError{Index: i, Field: name, Value: v}
			}
		}
	}
	return nil
}

// IterationRecord captures one iteration's measurements, max over ranks
// (the quantities plotted in Figures 17–19). It is the record a checkpoint
// carries, defined where it is encoded.
type IterationRecord = ckpt.Record

// Result aggregates a whole run.
type Result struct {
	Config Config
	// InitTime is the cost of the initial particle distribution.
	InitTime float64
	// TotalTime is the end-to-end simulated execution time (max clock),
	// including redistributions, excluding initialisation.
	TotalTime float64
	// ComputeMax is the per-rank maximum total computation time;
	// ComputeSum the sum over ranks (≈ sequential execution time).
	ComputeMax float64
	ComputeSum float64
	// Overhead is TotalTime − ComputeMax: everything that is not useful
	// computation on the critical path (the paper's Figures 21–22 metric).
	Overhead float64
	// Efficiency is ComputeSum / (P · TotalTime) (Table 3).
	Efficiency float64
	// FinalParticleCount is the global particle count at the end (must
	// equal NumParticles — the direct Lagrangian method loses nothing).
	FinalParticleCount int
	// NumRedistributions counts policy-triggered redistributions.
	NumRedistributions int
	// RedistTime is the total time spent redistributing.
	RedistTime float64
	// RedistByStrategy counts redistributions per layout
	// strategy name — under the Adaptive policy it shows which layouts the
	// live Table-1 scoring actually picked.
	RedistByStrategy map[string]int
	// Fingerprint is the order-sensitive FNV-64a hash of the world's final
	// physics state (every rank's particle columns and field arrays, folded
	// in rank order). Two runs of the same configuration — including one
	// recovered from a checkpoint mid-way — must produce identical
	// fingerprints; the recovery gates compare exactly this.
	Fingerprint uint64
	// Stopped reports that the run ended early because StopRequested fired
	// (graceful drain); CompletedIterations is how many iterations actually
	// finished — Iterations for a run that went to the end. A stopped run's
	// Records are truncated to the completed prefix.
	Stopped             bool
	CompletedIterations int
	Records             []IterationRecord
	Stats               machine.WorldStats
}

// MaxScatterBytes returns the peak per-iteration scatter traffic (sent), a
// compact Figure-18 summary.
func (r *Result) MaxScatterBytes() int64 {
	var m int64
	for i := range r.Records {
		if r.Records[i].ScatterBytesSent > m {
			m = r.Records[i].ScatterBytesSent
		}
	}
	return m
}

// MaxScatterMsgs returns the peak per-iteration scatter message count.
func (r *Result) MaxScatterMsgs() int64 {
	var m int64
	for i := range r.Records {
		if r.Records[i].ScatterMsgsSent > m {
			m = r.Records[i].ScatterMsgsSent
		}
	}
	return m
}
