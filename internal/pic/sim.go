// The driver of the full simulation: Run launches one Transport endpoint
// per rank, and runRank sets up the rank's state and runs the time step —
// the phases of phases.go called in order, then the measurement that feeds
// the per-iteration records and the redistribution policy, then at most one
// particle-movement step.

package pic

import (
	"fmt"

	"picpar/internal/comm"
	"picpar/internal/commopt"
	"picpar/internal/field"
	"picpar/internal/geom"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/mesh3"
	"picpar/internal/par"
	"picpar/internal/particle"
	"picpar/internal/policy"
	"picpar/internal/psort"
	"picpar/internal/sfc"
	"picpar/internal/wire"
)

// Message tags used by the simulation protocol.
const (
	tagInitChunk   comm.Tag = comm.TagUser + 100 + iota // initial particle dealing
	tagGatherReply                                      // ghost E/B replies
)

// Wire layout of the scatter-phase ghost exchange: gid + (Jx, Jy, Jz, Rho).
const scatterWireFloats = 5

// Wire layout of the gather-phase reply: (Ex, Ey, Ez, Bx, By, Bz).
const gatherWireFloats = 6

// Run executes the configured simulation and returns its measurements.
func Run(cfg Config) (*Result, error) {
	cfg, ge, pl, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Records: make([]IterationRecord, cfg.Iterations)}
	w := comm.NewWorld(cfg.P, cfg.Machine)
	// Enforce the link set in-process: any send outside it panics with a
	// typed error instead of silently widening the stencil.
	w.SetTopology(pl.topo)
	if cfg.Watchdog > 0 {
		w.SetWatchdog(cfg.Watchdog)
	}
	defer w.Close()
	ws := w.RunWrapped(cfg.Transport, func(r comm.Transport) {
		runRank(r, cfg, ge, pl, res)
	})
	res.finalize(cfg.P, ws)
	return res, nil
}

// prepare fills cfg's defaults, validates it and builds what every rank of
// the run shares read-only: the geometry, with the one cell curve of the
// run, and the topology plan. Each entry point calls it once per process.
func prepare(cfg Config) (Config, geom.Geometry, topoPlan, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, nil, topoPlan{}, err
	}
	ge, err := newGeometry(cfg)
	if err != nil {
		return cfg, nil, topoPlan{}, err
	}
	pl, err := buildTopoPlan(cfg, ge)
	return cfg, ge, pl, err
}

// RunRank executes one rank of the configured simulation over an existing
// Transport endpoint — the multi-process counterpart of Run, used when each
// rank is its own OS process joined over the TCP backend (comm.NetRank).
// cfg.P is taken from the transport; cfg.Transport (the decorator) is
// ignored because wrapping is the endpoint creator's job. All ranks
// participate fully, but only rank 0 returns a non-nil Result; the others
// return (nil, nil) on success.
func RunRank(t comm.Transport, cfg Config) (*Result, error) {
	cfg.P = t.Size()
	cfg, ge, pl, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	return runPrepared(t, cfg, ge, pl)
}

// runPrepared is RunRank on a prepared configuration, geometry and plan.
func runPrepared(t comm.Transport, cfg Config, ge geom.Geometry, pl topoPlan) (*Result, error) {
	res := &Result{Config: cfg, Records: make([]IterationRecord, cfg.Iterations)}
	runRank(t, cfg, ge, pl, res)
	// Gather every rank's ledger so rank 0 can report world aggregates.
	// This runs after runRank measured TotalTime, so the extra exchange
	// cannot perturb the goldens.
	vals := t.Expose(t.Stats().Snapshot())
	if t.Rank() != 0 {
		return nil, nil
	}
	ws := machine.WorldStats{Ranks: make([]machine.Stats, t.Size())}
	for i, v := range vals {
		st, ok := v.(machine.Stats)
		if !ok {
			return nil, fmt.Errorf("pic: rank %d published %T instead of its stats ledger", i, v)
		}
		ws.Ranks[i] = st
	}
	res.finalize(cfg.P, ws)
	return res, nil
}

// finalize fills the aggregate figures derived from the per-rank ledgers
// and the iteration records.
func (res *Result) finalize(p int, ws machine.WorldStats) {
	res.Stats = ws
	res.ComputeSum = ws.TotalCompute()
	res.ComputeMax = ws.MaxCompute()
	res.Overhead = res.TotalTime - res.ComputeMax
	if res.TotalTime > 0 {
		res.Efficiency = res.ComputeSum / (float64(p) * res.TotalTime)
	}
	for i := range res.Records {
		if res.Records[i].Redistributed {
			res.NumRedistributions++
			res.RedistTime += res.Records[i].RedistTime
			if s := res.Records[i].RedistStrategy; s != "" {
				if res.RedistByStrategy == nil {
					res.RedistByStrategy = make(map[string]int)
				}
				res.RedistByStrategy[s]++
			}
		}
	}
}

// newGeometry builds the run's Geometry: the BLOCK mesh distribution with
// its tiles numbered so that particle chunk r, the r-th P-th of the cell
// curve that orders the particles, lands on mesh block r, plus that cell
// indexer — in the configured dimensionality. In 2-D the tiles are
// numbered along the same curve over the processor grid; in 3-D
// mesh3.NewDistOrdered picks the tiling and numbering from the cell curve
// itself and hands back the indexer it built for that.
func newGeometry(cfg Config) (geom.Geometry, error) {
	if cfg.Dims == 3 {
		dist, err := mesh3.NewDistOrdered(cfg.Grid3, cfg.P, cfg.Indexing)
		if err != nil {
			return nil, err
		}
		return geom.New3(cfg.Grid3, dist, dist.Cells), nil
	}
	var dist *mesh.Dist
	var err error
	if cfg.MeshDist1D {
		dist, err = mesh.NewDist1D(cfg.Grid, cfg.P)
	} else {
		dist, err = mesh.NewDistOrdered(cfg.Grid, cfg.P, cfg.Indexing)
	}
	if err != nil {
		return nil, err
	}
	indexer, err := sfc.New(cfg.Indexing, cfg.Grid.Nx, cfg.Grid.Ny)
	if err != nil {
		return nil, err
	}
	return geom.New2(cfg.Grid, dist, indexer), nil
}

// rankState bundles one rank's simulation state, shared by the phases in
// phases.go.
type rankState struct {
	r   comm.Transport
	cfg Config
	ge  geom.Geometry

	store  *particle.Store
	fields *field.Local
	farr   *field.Arrays
	inc    *psort.Incremental
	pol    policy.Policy
	// bootEx and dataEx are the topology-selected exchange protocols for
	// the initial distribution and the steady-state redistribution
	// respectively (nil: the classic pairwise exchange). See topology.go.
	bootEx *comm.Exchanger
	dataEx *comm.Exchanger
	// topo is the enforced link set. scatter/gather consult it to route the
	// rare out-of-stencil ghost traffic — which exists whenever a
	// cost-weighted repartition decouples the particle and mesh alignments
	// under neighbor-sparse, and never on the full mesh — over the systolic
	// relay; scatterFar carries the per-iteration verdict from the scatter
	// counts table to the gather replies.
	topo       *comm.Topology
	scatterFar bool
	// led accumulates measured per-cell phase costs between redistributions
	// (strategy.go). It is built on first use (see ledger): a run that
	// never observes costs builds it only for a checkpoint's ledger block.
	led *machine.CostLedger
	// observeLedger gates the per-iteration cost observation: real
	// wall-clock work per particle (never simulated time), skipped when the
	// policy declares it can never ask for cost weights
	// (policy.CostWeightUser).
	observeLedger bool

	// runStart and initTime are the measurement cursors checkpoint shards
	// carry so a restored run resumes the same TotalTime accounting.
	runStart float64
	initTime float64
	// shardBuf is buildShard's scratch for the exported bucket bounds and
	// ledger estimates, reused from epoch to epoch.
	shardBuf []float64
	// Parsed PICPAR_CRASH chaos hook (checkpoint.go), armed once per run so
	// a malformed spec warns once, not once per iteration.
	crashRank, crashIter int
	crashMarker          string
	crashArmed           bool

	// Ghost bookkeeping, rebuilt (in place, allocation-free once warm)
	// every iteration.
	table     commopt.DupTable
	ghostVals []float64 // 4 source values per ghost slot (Jx, Jy, Jz, Rho)
	ghostEB   []float64 // 6 field values per ghost slot, filled in gather
	registry  commopt.Registry
	// recvGids[src] lists the grid points rank src contributed to here in
	// the scatter phase; gather replies go back in the same order.
	recvGids [][]float64

	// Exchange scratch: reusable per-destination buffer headers and counts
	// (the buffers themselves cycle through the wire pool), and per-rank
	// index lists for the Eulerian migrate.
	sendBufs   [][]float64
	sendCounts []int
	migrateIdx [][]int

	// Strategy scratch (strategy.go): the flattened local ledger export,
	// the world-summed per-cell cost and count estimates, and the derived
	// per-cell weights. Truncated, never freed, between synchronisations.
	ledgerBuf, gW, gN, pw []float64

	// Shared-memory parallelism (partasks.go): the rank's worker pool and
	// its two range tasks.
	pool   *par.Pool
	gpTask gatherPushTask
	mvTask moveTask
}

func runRank(r comm.Transport, cfg Config, ge geom.Geometry, pl topoPlan, res *Result) {
	pool := par.New(cfg.Workers)
	defer pool.Close()
	st := &rankState{
		r:      r,
		cfg:    cfg,
		ge:     ge,
		fields: ge.NewFields(r.Rank(), pool),
		inc:    psort.NewIncremental(psort.DefaultBuckets),
		pol:    cfg.Policy(),
		bootEx: pl.bootEx,
		dataEx: pl.dataEx,
		topo:   pl.topo,
		pool:   pool,
	}
	st.inc.SetPool(pool)
	st.armCrashHook()
	st.inc.SetExchanger(st.dataEx)
	st.farr = st.fields.Arrays()
	if u, ok := st.pol.(policy.CostWeightUser); ok {
		st.observeLedger = u.UsesCostWeights()
	} else {
		st.observeLedger = true // unknown policies may ask at any time
	}
	if ad, ok := st.pol.(*policy.Adaptive); ok {
		ad.SetChooser(st.chooseStrategy)
	}
	tab, err := commopt.NewTable(cfg.Table, ge.NumPoints(), ge.NumVertices()*cfg.NumParticles/cfg.P+16)
	if err != nil {
		panic(err)
	}
	st.table = tab

	// ---- Recovery: roll back to the agreed checkpoint epoch ----
	startIter := 0
	restored := false
	if cfg.Recover && cfg.CheckpointDir != "" {
		if sh := st.agreeCheckpoint(); sh != nil {
			st.restoreShard(sh, res)
			startIter = sh.Epoch
			restored = true
		}
		// No usable epoch: agreeCheckpoint wiped its charges, so the fresh
		// start below is byte-identical to a non-recovering run.
	}

	if !restored {
		// ---- Initial distribution (the paper's distribution algorithm) ----
		r.SetPhase(machine.PhaseRedistribute)
		st.initialDistribution()
		if cfg.Eulerian {
			// Direct Eulerian: override the aligned layout by migrating every
			// particle to its cell's owner. This first migration is
			// any-to-any (the key-sorted layout can sit far from the cell
			// owners), so it rides the boot protocol; steady-state
			// migrations move one cell at most and stay on dataEx.
			dataEx := st.dataEx
			st.dataEx = st.bootEx
			st.migrate()
			st.dataEx = dataEx
		}
		comm.Barrier(r)
		initTime := comm.ExposeMaxFloat64(r, r.Clock().Now())
		st.pol.NotifyRedistribution(-1, initTime)
		st.initTime = initTime
		if r.Rank() == 0 {
			res.InitTime = initTime
		}
		st.runStart = r.Clock().Now()
	}

	// ---- Time-step loop ----
	completed := startIter
	stopped := false
	for iter := startIter; iter < cfg.Iterations; iter++ {
		st.maybeCrash(iter)
		iterStart := r.Clock().Now()
		snap := r.Stats().Snapshot()

		st.scatterPhase()
		if cfg.Verify {
			// While the deposited sources are still fresh.
			st.verifyInvariants(iter)
		}
		st.fieldSolvePhase()
		st.gatherAndPushPhase()

		r.SetPhase(machine.PhaseCommSetup)
		comm.Barrier(r)

		diff := r.Stats().Diff(&snap)
		if st.observeLedger {
			st.observeCosts(&diff)
		}
		sc := diff.Phases[machine.PhaseScatter]
		comp, busy := 0.0, 0.0
		for p := range diff.Phases {
			comp += diff.Phases[p].ComputeTime
			busy += diff.Phases[p].ComputeTime + diff.Phases[p].CommTime
		}
		// One out-of-band Expose serves the element-wise max the records
		// always carried plus the busy-time max and sum behind the
		// max/mean imbalance (two barriers, like one ExposeMaxFloat64). The
		// trailing element is the drain flag: any rank whose StopRequested
		// poll fired makes the whole world agree to stop at this iteration
		// boundary — same free, deterministic agreement the measurements
		// ride.
		stopFlag := 0.0
		if cfg.StopRequested != nil && cfg.StopRequested() {
			stopFlag = 1
		}
		all := r.Expose([]float64{
			r.Clock().Now() - iterStart,
			comp,
			float64(sc.BytesSent), float64(sc.BytesRecv),
			float64(sc.MsgsSent), float64(sc.MsgsRecv),
			busy,
			stopFlag,
		})
		var meas [7]float64
		busySum := 0.0
		stopAgreed := false
		for _, x := range all {
			vec := x.([]float64)
			busySum += vec[6]
			if vec[7] > 0 {
				stopAgreed = true
			}
			for i := range meas {
				if vec[i] > meas[i] {
					meas[i] = vec[i]
				}
			}
		}
		iterTime := meas[0]
		imb := 1.0
		if busySum > 0 {
			imb = meas[6] * float64(r.Size()) / busySum
		}

		rec := IterationRecord{
			Iter:             iter,
			Time:             iterTime,
			Compute:          meas[1],
			ScatterBytesSent: int64(meas[2]),
			ScatterBytesRecv: int64(meas[3]),
			ScatterMsgsSent:  int64(meas[4]),
			ScatterMsgsRecv:  int64(meas[5]),
			BusyImbalance:    imb,
		}

		if cfg.Diagnostics && iter%cfg.DiagEvery == 0 {
			rec.FieldEnergy = comm.ExposeSumFloat64(r, st.fields.Energy())
			rec.KineticEnergy = comm.ExposeSumFloat64(r, st.store.KineticEnergy())
		}

		// ---- Particle movement between ranks ----
		// Eulerian migration runs every iteration, charged to the push phase
		// after the measurement: part of TotalTime but not of the record, as
		// in the Eulerian baseline's accounting. Lagrangian redistribution
		// runs when the policy — deciding identically on all ranks — fires.
		if cfg.Eulerian {
			r.SetPhase(machine.PhasePush)
			st.migrate()
		} else if d := st.pol.Decide(iter, iterTime); d.Redistribute {
			st.redistribute(iter, d.Strategy, &rec)
		}

		if r.Rank() == 0 {
			res.Records[iter] = rec
			if cfg.OnIteration != nil {
				cfg.OnIteration(rec)
			}
		}
		st.maybeCheckpoint(iter, res)
		completed = iter + 1
		if stopAgreed {
			// Graceful drain: pin a final checkpoint epoch at this boundary
			// (all ranks agreed, so the epoch completes) and leave the loop
			// together. The epilogue below still runs — a stopped run
			// reports its partial measurements honestly.
			st.checkpointNow(iter, res)
			stopped = true
			break
		}
	}

	comm.Barrier(r)
	total := comm.ExposeMaxFloat64(r, r.Clock().Now()-st.runStart)
	finalCount := int(comm.ExposeSumFloat64(r, float64(st.store.Len())) + 0.5)
	fp := st.worldFingerprint()
	if r.Rank() == 0 {
		res.TotalTime = total
		res.FinalParticleCount = finalCount
		res.Fingerprint = fp
		res.Stopped = stopped
		res.CompletedIterations = completed
		if stopped {
			res.Records = res.Records[:completed]
		}
	}
}

// initialDistribution deals the global population from rank 0 in
// contiguous chunks and sample-sorts by SFC key so every rank starts with a
// compact, balanced, mesh-aligned particle subdomain.
func (st *rankState) initialDistribution() {
	r := st.r
	if r.Rank() == 0 {
		st.dealChunks()
	} else {
		st.recvChunk()
	}
	st.assignKeys()
	st.store = st.inc.Distribute(r, st.store, st.bootEx)
	st.inc.Prime(st.store)
}

// dealChunks deals the run's population — cfg.CustomParticles, or the
// configured distribution generated under ge in id order, ids being the
// generation indices — in contiguous BLOCK chunks, one per rank. Chunk 0
// becomes rank 0's store. Every other chunk is generated into a second set
// (or read straight from the caller's store) and marshalled from there, so
// no rank ever holds the whole population. The classic path is one
// point-to-point message per destination, last rank first; under a sparse
// topology that scatter cannot use direct links, so the chunks ride the
// systolic ring instead (skeleton links only, same payloads).
func (st *rankState) dealChunks() {
	r := st.r
	cfg := st.cfg
	p := r.Size()
	n := cfg.NumParticles
	send := make([][]float64, p)
	_, hi0 := mesh.BlockRange(n, p, 0)
	if custom := cfg.CustomParticles; custom != nil {
		st.store = st.inc.Spare(custom, hi0)
		st.store.AppendRange(custom, 0, hi0)
		for dst := 1; dst < p; dst++ {
			lo, hi := mesh.BlockRange(n, p, dst)
			send[dst] = custom.MarshalRange(wire.Get((hi-lo)*custom.WireFloats()), lo, hi)
		}
	} else {
		gen, err := st.ge.Generator(geom.GenConfig{
			N:            n,
			Distribution: cfg.Distribution,
			Seed:         cfg.Seed,
			Thermal:      cfg.Thermal,
			Drift:        cfg.Drift,
			Charge:       cfg.MacroCharge,
		})
		if err != nil {
			panic(fmt.Sprintf("pic: generate: %v", err))
		}
		// The empty geometry store only names the layout and species of
		// the rank's set the chunk lands in.
		st.store = st.inc.Spare(st.ge.NewStore(0, cfg.MacroCharge, 1), hi0)
		gen.Fill(st.store, hi0)
		for dst := 1; dst < p; dst++ {
			lo, hi := mesh.BlockRange(n, p, dst)
			chunk := st.inc.Spare(st.store, hi-lo)
			gen.Fill(chunk, hi-lo)
			send[dst] = chunk.MarshalRange(wire.Get((hi-lo)*chunk.WireFloats()), 0, hi-lo)
		}
	}
	if st.bootEx != nil {
		// Rank 0 receives nothing: its own chunk stayed local.
		comm.AllToManySystolicFloat64s(r, send, make([]int, p))
		return
	}
	for dst := p - 1; dst > 0; dst-- {
		comm.SendFloat64s(r, dst, tagInitChunk, send[dst])
	}
}

// recvChunk receives this rank's chunk of the initial population from rank
// 0 — point to point classically, off the systolic ring under a sparse
// topology. The expected chunk size is derived locally from the global
// particle count, so no counts exchange is needed.
func (st *rankState) recvChunk() {
	r := st.r
	cfg := st.cfg
	// The empty geometry store names the layout and species of the rank's
	// set the chunk lands in.
	empty := st.ge.NewStore(0, cfg.MacroCharge, 1)
	wf := empty.WireFloats()
	var chunk []float64
	if st.bootEx == nil {
		chunk = comm.RecvFloat64s(r, 0, tagInitChunk)
	} else {
		p := r.Size()
		recvCounts := make([]int, p)
		lo, hi := mesh.BlockRange(cfg.NumParticles, p, r.Rank())
		recvCounts[0] = (hi - lo) * wf
		recv := comm.AllToManySystolicFloat64s(r, make([][]float64, p), recvCounts)
		chunk = recv[0]
	}
	st.store = st.inc.Spare(empty, len(chunk)/wf)
	if err := st.store.AppendWire(chunk); err != nil {
		panic(err)
	}
	wire.Put(chunk)
}
