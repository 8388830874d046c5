// The phases of the PIC time step over the shared rankState — scatter,
// field solve, gather/push — and the two particle-movement steps that may
// follow one: Eulerian migration and policy-decided redistribution.
// runRank (sim.go) calls them in order.

package pic

import (
	"fmt"

	"picpar/internal/comm"
	"picpar/internal/geom"
	"picpar/internal/machine"
	"picpar/internal/policy"
	"picpar/internal/pusher"
	"picpar/internal/wire"
)

// redistribute rebuilds the layout strat names after iteration iter and
// marks rec with the outcome. It owns its measurement: the globally agreed
// redistribution time feeds back into the policy. A failed exchange means
// a dead rank: its *comm.DeliveryError aborts the run, and an elastic rank
// rejoins from the last checkpoint.
func (st *rankState) redistribute(iter int, strat policy.Strategy, rec *IterationRecord) {
	r := st.r
	r.SetPhase(machine.PhaseRedistribute)
	t0 := r.Clock().Now()
	st.rebalance(strat)
	comm.Barrier(r)
	rt := comm.ExposeMaxFloat64(r, r.Clock().Now()-t0)
	st.pol.NotifyRedistribution(iter, rt)
	rec.RedistStrategy = strat.String()
	rec.RedistTime = rt
	rec.Redistributed = true
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
		st.migrate()
		return
	}
	st.assignKeys()
	var wf func(key float64) float64
	if strat.Split == policy.SplitCostWeighted {
		wf = st.particleWeightFn()
	}
	st.store, _ = st.inc.RedistributeWeighted(st.r, st.store, wf)
}

// migrate moves every particle to the rank owning its cell's lower-left
// grid point — the per-iteration particle movement of the direct Eulerian
// method. Communication uses the same traffic-table + all-to-many protocol
// as redistribution, and the migrated store is built in one of the
// incremental sorter's sets, so migrations and redistributions rotate
// through the same rank-owned memory.
func (st *rankState) migrate() {
	r := st.r
	s := st.store

	if st.migrateIdx == nil {
		st.migrateIdx = make([][]int, r.Size())
	}
	// ownIdx[d] lists the particles rank d owns; this rank's own list is
	// the kept set.
	ownIdx := st.migrateIdx
	for d := range ownIdx {
		ownIdx[d] = ownIdx[d][:0]
	}
	kept := st.inc.Spare(s, s.Len())
	for i := 0; i < s.Len(); i++ {
		owner := st.ge.OwnerOfParticle(s, i)
		ownIdx[owner] = append(ownIdx[owner], i)
	}
	kept.AppendIndices(s, ownIdx[r.Rank()])
	r.Compute(s.Len() * 2)

	wf := s.WireFloats()
	send, counts := st.exchangeScratch()
	for d := 0; d < r.Size(); d++ {
		if d != r.Rank() && len(ownIdx[d]) > 0 {
			send[d] = s.MarshalIndices(wire.Get(len(ownIdx[d])*wf), ownIdx[d])
			counts[d] = len(send[d])
			r.Compute(len(ownIdx[d]) * 7)
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

	// One sequential range kernel at every worker count: a tiled parallel
	// deposit measured slower than it at 2 and 4 workers (DESIGN.md,
	// "Intra-rank shared-memory parallelism"). It returns the number of
	// off-processor contributions for the δ charge.
	offprocOps := st.ge.Deposit(s, 0, s.Len(), st.fields, st.table, &st.ghostVals)
	r.Compute(s.Len()*st.ge.NumVertices()*pusher.ScatterWorkPerVertex + offprocOps*st.table.CostPerOp())

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

	// The traffic table is protocol setup, not ghost data. The same
	// allgather yields the global far-traffic verdict: ghost contributions
	// are stencil-local while the particle partition stays aligned with the
	// mesh blocks, but under neighbor-sparse a cost-weighted repartition can
	// hand a rank particles whose cells any rank owns, and those payloads
	// must ride the systolic relay instead of a refused direct send. On the
	// full mesh the verdict is always false.
	r.SetPhase(machine.PhaseCommSetup)
	recvCounts, far := comm.ExchangeCountsSparse(r, st.topo, counts)
	st.scatterFar = far
	r.SetPhase(machine.PhaseScatter)
	recv := comm.AllToManySparseFloat64s(r, st.topo, send, recvCounts, far)

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
		if n := len(buf) / scatterWireFloats; cap(gids) < n {
			gids = make([]float64, 0, 2*n)
		}
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
	far := st.scatterFar
	var farSend [][]float64
	var farCounts []int
	if far {
		farSend, farCounts = st.exchangeScratch()
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
	// particles diffuse, so the buffer doubles, not by exact fit.
	need := gatherWireFloats * st.table.Len()
	if cap(st.ghostEB) < need {
		st.ghostEB = make([]float64, 2*need)
	}
	st.ghostEB = st.ghostEB[:need]
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
