// The engine-layer decomposition of the PIC time step: each of scatter,
// field solve, gather/push, migrate and redistribute is an engine.Phase
// over the shared rankState, and a simulation mode is a pipeline
// composition plus a Trigger guarding the post-iteration movement phase —
// the policy for the Lagrangian mode, Always for the Eulerian mode.

package pic

import (
	"fmt"
	"slices"

	"picpar/internal/comm"
	"picpar/internal/engine"
	"picpar/internal/geom"
	"picpar/internal/machine"
	"picpar/internal/policy"
	"picpar/internal/pusher"
	"picpar/internal/wire"
)

// Phase names, stable identifiers for hooks and diagnostics.
const (
	phaseNameScatter      = "scatter"
	phaseNameFieldSolve   = "fieldsolve"
	phaseNameGatherPush   = "gatherpush"
	phaseNameMigrate      = "migrate"
	phaseNameRedistribute = "redistribute"
)

// composePipeline builds the per-iteration pipeline, the trigger deciding
// whether the post-iteration movement phase runs, and that phase itself.
// The Lagrangian and Eulerian modes differ only in this composition.
func (st *rankState) composePipeline() {
	st.pipe = engine.New(phScatter{st}, phFieldSolve{st}, phGatherPush{st})
	if st.cfg.Verify {
		st.pipe.AddHook(verifyHook{st})
	}
	if st.cfg.Eulerian {
		// Eulerian migration runs unconditionally every iteration.
		st.trigger, st.post = engine.Always{}, phMigrate{st}
	} else {
		// Lagrangian redistribution runs when the policy says so.
		st.trigger, st.post = policyTrigger{st}, phRedistribute{st}
	}
}

// policyTrigger adapts the strategy-deciding policy to the engine's boolean
// Trigger: the full decision — including which layout strategy to rebuild
// into — is stashed on the rank state for phRedistribute to act on.
type policyTrigger struct{ st *rankState }

func (t policyTrigger) Decide(iter int, iterTime float64) bool {
	t.st.decision = t.st.pol.Decide(iter, iterTime)
	return t.st.decision.Redistribute
}

// phScatter is the scatter phase as an engine.Phase.
type phScatter struct{ st *rankState }

func (p phScatter) Name() string { return phaseNameScatter }
func (p phScatter) Run(int)      { p.st.scatterPhase() }

// phFieldSolve is the field-solve phase as an engine.Phase.
type phFieldSolve struct{ st *rankState }

func (p phFieldSolve) Name() string { return phaseNameFieldSolve }
func (p phFieldSolve) Run(int)      { p.st.fieldSolvePhase() }

// phGatherPush is the gather + push phase as an engine.Phase.
type phGatherPush struct{ st *rankState }

func (p phGatherPush) Name() string { return phaseNameGatherPush }
func (p phGatherPush) Run(int)      { p.st.gatherAndPushPhase() }

// phMigrate is the Eulerian per-iteration migration as an engine.Phase.
// Its cost is charged to the push phase, after the iteration measurement —
// part of TotalTime but not of the per-iteration record, as in the
// Eulerian baseline's accounting.
type phMigrate struct{ st *rankState }

func (p phMigrate) Name() string { return phaseNameMigrate }
func (p phMigrate) Run(int) {
	p.st.r.SetPhase(machine.PhasePush)
	p.st.migrate()
}

// phRedistribute is the policy-triggered redistribution as an engine.Phase.
// It owns its measurement (the globally agreed redistribution time feeds
// back into the policy) and marks the current iteration record.
//
// Failure contract: when the transport stack is Degradable (a
// comm.Reliable layer is installed), a redistribution whose exchange
// suffers unrecoverable delivery failures is discarded — every rank keeps
// its previous alignment, the wasted attempt time stays on the simulated
// clock (it is real time the machine burned), the policy is NOT notified
// (no new measurement baseline), and the trigger fires again at the next
// opportunity. Without a Degradable layer the failure propagates as a
// panic, aborting the run loudly.
type phRedistribute struct{ st *rankState }

func (p phRedistribute) Name() string { return phaseNameRedistribute }
func (p phRedistribute) Run(iter int) {
	st := p.st
	r := st.r
	r.SetPhase(machine.PhaseRedistribute)
	strat := st.decision.Strategy
	t0 := r.Clock().Now()
	failed := st.attemptRebalance(strat)
	comm.Barrier(r)
	rt := comm.ExposeMaxFloat64(r, r.Clock().Now()-t0)
	st.rec.RedistStrategy = strat.String()
	if failed {
		st.rec.RedistFailed = true
		st.rec.RedistTime = rt
		return
	}
	st.pol.NotifyRedistribution(iter, rt)
	st.rec.Redistributed = true
	st.rec.RedistTime = rt
}

// attemptRebalance runs the decided rebalance exchange, degrading
// gracefully when the transport can scope failures. Returns true when the
// attempt was discarded. On discard the policy is not notified, so a
// pending adaptive strategy choice rolls back with the layout.
func (st *rankState) attemptRebalance(strat policy.Strategy) bool {
	deg, ok := comm.AsDegradable(st.r)
	if !ok {
		st.rebalance(strat)
		return false
	}
	prevStore := st.store
	bounds := st.inc.SnapshotBounds()
	failures := deg.CollectFailures(func() { st.rebalance(strat) })
	// The discard decision must be unanimous — one rank's failed exchange
	// invalidates the redistribution everywhere, or the bucket-boundary
	// tables would diverge across ranks. Expose is out-of-band, so the
	// agreement itself cannot be perturbed.
	localFailed := 0.0
	if len(failures) > 0 {
		localFailed = 1
	}
	if comm.ExposeMaxFloat64(st.r, localFailed) == 0 {
		return false
	}
	// Roll back: the input store is never modified by Redistribute, so the
	// previous alignment is exactly (previous store, previous bounds).
	st.store = prevStore
	st.inc.RestoreBounds(bounds)
	return true
}

// verifyHook runs the conservation checks right after the scatter phase,
// while the deposited sources are still fresh.
type verifyHook struct{ st *rankState }

func (h verifyHook) Before(engine.Phase, int) {}
func (h verifyHook) After(p engine.Phase, iter int) {
	if p.Name() == phaseNameScatter {
		h.st.verifyInvariants(iter)
	}
}

// verifyInvariants checks, out of band, that the mesh-deposited charge sums
// to n·q (scatter conserved every contribution, local and ghost) and that
// no particles were lost.
func (st *rankState) verifyInvariants(iter int) {
	r := st.r
	// The check's barriers are bookkeeping, not ghost traffic.
	prev := r.Stats().CurrentPhase()
	r.SetPhase(machine.PhaseCommSetup)
	defer r.SetPhase(prev)
	totalRho := comm.ExposeSumFloat64(r, st.fields.SumRho())
	want := float64(st.cfg.NumParticles) * st.cfg.MacroCharge
	tol := 1e-9 * (1 + absF(want))
	if absF(totalRho-want) > tol {
		panic(fmt.Sprintf("pic: iter %d: mesh charge %g, want %g (scatter lost contributions)",
			iter, totalRho, want))
	}
	count := int(comm.ExposeSumFloat64(r, float64(st.store.Len())) + 0.5)
	if count != st.cfg.NumParticles {
		panic(fmt.Sprintf("pic: iter %d: %d particles, want %d", iter, count, st.cfg.NumParticles))
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// assignKeys refreshes every particle's SFC key and charges the indexing
// cost.
func (st *rankState) assignKeys() {
	st.ge.AssignKeys(st.store)
	st.r.Compute(st.store.Len() * geom.KeyAssignWorkPerParticle)
}

// rebalance rebuilds the particle layout the decided strategy names: a
// one-shot Eulerian migration onto the mesh owners, or the Lagrangian
// redistribution of Figure 12 — Hilbert_Base_Indexing +
// Bucket_Incremental_Sorting + Order_Maintain_Load_Balance. The balance
// cuts the sorted sequence at equal count under the nil weight and at equal
// cumulative estimated cost under the ledger-derived per-key weight; the
// zero-value strategy is the classic equal-count one.
func (st *rankState) rebalance(strat policy.Strategy) {
	if strat.Movement == policy.MovementEulerian {
		st.migrateOneShot()
		return
	}
	st.assignKeys()
	var wf func(key float64) float64
	if strat.Split == policy.SplitCostWeighted {
		wf = st.particleWeightFn()
	}
	st.store, _ = st.inc.RedistributeWeighted(st.r, st.store, wf)
}

// migrateOneShot runs one Eulerian migration as a strategy-selected
// rebalance. migrate ping-pongs st.spare with the live store; in the
// Lagrangian pipeline the live store may be one of the incremental
// sorter's internal output slots, which a later Redistribute reuses — so
// the spare is parked for the duration instead of capturing that slot,
// and the migrated-out store is left to the collector.
func (st *rankState) migrateOneShot() {
	spare := st.spare
	st.spare = nil
	st.migrate()
	st.spare = spare
}

// migrate moves every particle to the rank owning its cell's lower-left
// grid point — the per-iteration particle movement of the direct Eulerian
// method. Communication uses the same traffic-table + all-to-many protocol
// as redistribution.
func (st *rankState) migrate() {
	r := st.r
	s := st.store

	if st.migrateIdx == nil {
		st.migrateIdx = make([][]int, r.Size())
	}
	sendIdx := st.migrateIdx
	for d := range sendIdx {
		sendIdx[d] = sendIdx[d][:0]
	}
	// Ping-pong the kept store with the spare slot so each migration
	// recycles the arrays freed by the previous one.
	kept := st.spare
	if kept == nil {
		kept = s.NewLike(s.Len())
	} else {
		kept.Truncate(0)
		kept.Charge, kept.Mass = s.Charge, s.Mass
	}
	for i := 0; i < s.Len(); i++ {
		owner := st.ge.OwnerOfParticle(s, i)
		if owner == r.Rank() {
			kept.AppendFrom(s, i)
		} else {
			sendIdx[owner] = append(sendIdx[owner], i)
		}
	}
	r.Compute(s.Len() * 2)

	wf := s.WireFloats()
	send, counts := st.exchangeScratch()
	for d := 0; d < r.Size(); d++ {
		if len(sendIdx[d]) > 0 {
			send[d] = s.MarshalIndices(wire.Get(len(sendIdx[d])*wf), sendIdx[d])
			counts[d] = len(send[d])
			r.Compute(len(sendIdx[d]) * 7)
		}
	}
	recv := st.dataEx.Exchange(r, send, counts)
	for src := 0; src < r.Size(); src++ {
		if src != r.Rank() && len(recv[src]) > 0 {
			if err := kept.AppendWire(recv[src]); err != nil {
				panic(err)
			}
			r.Compute(len(recv[src]))
			wire.Put(recv[src])
		}
	}
	st.spare = s
	st.store = kept
}

// exchangeScratch returns the reusable per-destination send headers and
// counts, cleared for a new exchange.
func (st *rankState) exchangeScratch() ([][]float64, []int) {
	if st.sendBufs == nil {
		st.sendBufs = make([][]float64, st.r.Size())
		st.sendCounts = make([]int, st.r.Size())
	}
	for d := range st.sendBufs {
		st.sendBufs[d] = nil
		st.sendCounts[d] = 0
	}
	return st.sendBufs, st.sendCounts
}

// scatterPhase deposits every particle's current and charge onto the
// vertex grid points of its cell (four in 2-D, eight in 3-D), accumulating
// off-processor contributions in the duplicate-removal table and shipping
// one coalesced message per destination owner.
func (st *rankState) scatterPhase() {
	r := st.r
	r.SetPhase(machine.PhaseScatter)
	fa := st.farr
	s := st.store

	st.fields.ZeroSources()
	st.table.Reset()
	st.ghostVals = st.ghostVals[:0]

	nv := st.ge.NumVertices()
	tableCost := st.table.CostPerOp()
	// The scatter alone keeps two algorithms, sharing no logic and chosen
	// from the worker count: at one worker the tiled deposit would only add
	// its bucket traffic to the direct one (partasks.go).
	var offprocOps int
	if st.workers > 1 {
		offprocOps = st.depositTiled()
	} else {
		offprocOps = st.depositDirect()
	}
	// The δ charge never depends on Workers: the simulated machine has one
	// compute stream per rank, so wall-clock parallelism must not move the
	// modelled clock.
	r.Compute(s.Len()*nv*pusher.ScatterWorkPerVertex + offprocOps*tableCost)

	// Communication coalescing: one message per destination owner.
	st.registry.Build(st.table, r.Rank(), r.Size(), st.ge.OwnerOfPoint)
	send, counts := st.exchangeScratch()
	for k, dst := range st.registry.Dest {
		buf := wire.Get(len(st.registry.Gids[k]) * scatterWireFloats)
		for idx, gid := range st.registry.Gids[k] {
			slot := st.registry.Slots[k][idx]
			buf = append(buf, float64(gid),
				st.ghostVals[4*slot], st.ghostVals[4*slot+1],
				st.ghostVals[4*slot+2], st.ghostVals[4*slot+3])
		}
		send[dst] = buf
		counts[dst] = len(buf)
	}

	// The traffic table is protocol setup, not ghost data. Under a sparse
	// topology the same allgather additionally yields the global far-traffic
	// verdict: ghost contributions are stencil-local while the particle
	// partition stays aligned with the mesh blocks, but a cost-weighted
	// repartition can hand a rank particles whose cells any rank owns, and
	// those payloads must ride the systolic relay instead of a refused
	// direct send.
	r.SetPhase(machine.PhaseCommSetup)
	var recvCounts []int
	st.scatterFar = false
	if tp := st.topo; tp != nil {
		recvCounts, st.scatterFar = comm.ExchangeCountsSparse(r, tp, counts)
	} else {
		recvCounts = comm.ExchangeCounts(r, counts)
	}
	r.SetPhase(machine.PhaseScatter)
	var recv [][]float64
	if tp := st.topo; tp != nil {
		recv = comm.AllToManySparseFloat64s(r, tp, send, recvCounts, st.scatterFar)
	} else {
		recv = comm.AllToManyFloat64s(r, send, recvCounts)
	}

	// Accumulate received contributions; remember who asked for what so
	// the gather phase can reply in kind.
	if st.recvGids == nil {
		st.recvGids = make([][]float64, r.Size())
	}
	for src := 0; src < r.Size(); src++ {
		st.recvGids[src] = st.recvGids[src][:0]
		buf := recv[src]
		if src == r.Rank() || len(buf) == 0 {
			continue
		}
		gids := st.recvGids[src]
		for o := 0; o < len(buf); o += scatterWireFloats {
			c := st.fields.Slot(int(buf[o]))
			fa.Jx[c] += buf[o+1]
			fa.Jy[c] += buf[o+2]
			fa.Jz[c] += buf[o+3]
			fa.Rho[c] += buf[o+4]
			gids = append(gids, buf[o])
		}
		st.recvGids[src] = gids
		r.Compute(len(gids) * 4)
		wire.Put(buf)
	}
}

// fieldSolvePhase advances Maxwell's equations one leapfrog step.
func (st *rankState) fieldSolvePhase() {
	st.r.SetPhase(machine.PhaseFieldSolve)
	st.fields.Solve(st.r, st.cfg.Dt)
}

// gatherAndPushPhase is the inverse of scatter: mesh owners return E and B
// at exactly the ghost points each rank contributed to, then every particle
// gathers its fields from its cell's vertices and is pushed.
func (st *rankState) gatherAndPushPhase() {
	r := st.r
	r.SetPhase(machine.PhaseGather)
	fa := st.farr
	s := st.store

	// Reply to every rank that deposited here. Replies retrace the scatter's
	// routes: direct sends to linked ranks, and — on iterations whose
	// scatter saw far traffic — one systolic relay pass for the rest. The
	// scatterFar verdict is global, so every rank agrees on whether the
	// relay collective runs.
	far := st.topo != nil && st.scatterFar
	var farSend [][]float64
	var farCounts []int
	if far {
		farSend = make([][]float64, r.Size())
		farCounts = make([]int, r.Size())
	}
	for src := 0; src < r.Size(); src++ {
		gids := st.recvGids[src]
		if len(gids) == 0 {
			continue
		}
		buf := wire.Get(len(gids) * gatherWireFloats)
		for _, fgid := range gids {
			c := st.fields.Slot(int(fgid))
			buf = append(buf, fa.Ex[c], fa.Ey[c], fa.Ez[c], fa.Bx[c], fa.By[c], fa.Bz[c])
		}
		r.Compute(len(gids) * 2)
		if far && !st.topo.Connected(r.Rank(), src) {
			farSend[src] = buf
			continue
		}
		comm.SendFloat64s(r, src, tagGatherReply, buf)
	}
	var farRecv [][]float64
	if far {
		// Every reply size is known locally: the owner returns exactly one
		// field sample per ghost point this rank deposited there.
		for k, dst := range st.registry.Dest {
			if !st.topo.Connected(r.Rank(), dst) {
				farCounts[dst] = len(st.registry.Gids[k]) * gatherWireFloats
			}
		}
		farRecv = comm.AllToManySystolicFloat64s(r, farSend, farCounts)
	}

	// Collect replies for our own ghost points: every slot is overwritten
	// below. The ghost set creeps up by a few points per iteration while
	// particles diffuse, so the buffer grows geometrically, not by exact fit.
	need := gatherWireFloats * st.table.Len()
	st.ghostEB = slices.Grow(st.ghostEB[:0], need)[:need]
	for k, dst := range st.registry.Dest {
		var buf []float64
		if far && !st.topo.Connected(r.Rank(), dst) {
			buf = farRecv[dst]
		} else {
			buf = comm.RecvFloat64s(r, dst, tagGatherReply)
		}
		for idx, slot := range st.registry.Slots[k] {
			copy(st.ghostEB[gatherWireFloats*slot:], buf[gatherWireFloats*idx:gatherWireFloats*idx+gatherWireFloats])
		}
		wire.Put(buf)
	}

	// Interpolate fields at particles and push. Per-particle independent,
	// so the range split is bit-identical at any worker count; the δ charge
	// is worker-count-invariant like the scatter's.
	nv := st.ge.NumVertices()
	st.gpTask.st = st
	st.pool.Run(s.Len(), &st.gpTask)
	r.Compute(s.Len() * nv * pusher.GatherWorkPerVertex)

	// Push phase: move particles (no interprocessor communication — the
	// direct Lagrangian property).
	r.SetPhase(machine.PhasePush)
	st.mvTask.st = st
	st.pool.Run(s.Len(), &st.mvTask)
	r.Compute(s.Len() * pusher.PushWorkPerParticle)
}
