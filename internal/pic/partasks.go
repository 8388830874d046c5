// Shared-memory kernels of the per-iteration hot path, run over the rank's
// par.Pool: the gather/push and move range tasks (one call each into the
// geometry's range kernels, the only body those loops have — a 1-worker
// pool runs it inline) and the tiled two-pass scatter deposition used above
// one worker, whose generate pass walks each footprint vertex by vertex.
//
// Bit-determinism contract: every kernel here reproduces the one-worker
// floating-point accumulation order exactly, so results are byte-identical
// for every worker count.
//
//   - Scatter splits into a generate pass and a reduce pass. Generate gives
//     worker w a contiguous particle range (par.Split, ascending in w) and
//     buckets each owned-slot contribution into a per-(worker, tile) list,
//     where a tile is a contiguous range of the halo slot space; ghost
//     contributions go to a per-worker list. Reduce assigns tiles to
//     workers and, per tile, replays the lists in ascending worker order,
//     adding one contribution at a time — a slot's additions happen in
//     exactly the global (particle, vertex) order of the sequential loop.
//     Distinct tiles touch distinct slots, so the pass is race-free. The
//     ghost lists merge sequentially in worker order, so the DupTable sees
//     gids in first-occurrence order identical to the sequential path and
//     the registry (hence the wire bytes) match bit for bit.
//   - Gather/push and move touch only particle i's own state per index, so
//     a plain range split is already order-identical.
//
// All buckets and tasks live in rankState and are truncated, never freed,
// between iterations: the steady state allocates nothing.

package pic

import (
	"unsafe"

	"picpar/internal/geom"
)

// workerScratch is the footprint scratch one worker's vertex-by-vertex
// loops (the tiled generate pass, observeCosts) fill through the geometry
// interface (a local would escape to the heap at every phase call). It is rewritten for every particle, so it is padded to
// 256 bytes: allocated at that size, no two workers' — and, at one worker,
// no two ranks' — scratch can share a cache line or the adjacent line the
// hardware prefetches with it. Unpadded neighbours measured +15 % to +80 %
// on a steady iteration.
type workerScratch struct {
	fp geom.Footprint
	_  [256 - unsafe.Sizeof(geom.Footprint{})]byte
}

// parTiles is the number of deposition tiles per worker. More tiles than
// workers lets the reduce pass balance unevenly filled tiles; a small
// constant keeps the bucket headers cache-resident.
const parTiles = 4

// depositDirect is the one-worker deposition: the geometry's range kernel
// accumulates every particle's vertex contributions straight into the field
// arrays (owned slots) or the duplicate-removal table's ghost values, in
// particle order. Returns the number of off-processor contributions for the
// phase's δ charge.
func (st *rankState) depositDirect() int {
	return st.ge.Deposit(st.store, 0, st.store.Len(), st.fields, st.table, &st.ghostVals)
}

// depositTiled is the deposition above one worker: generate pass over
// particle ranges, reduce pass over tiles, then the sequential ghost merge.
// Returns depositDirect's count, for the same worker-count-invariant δ
// charge.
func (st *rankState) depositTiled() int {
	if st.depSlots == nil {
		st.tiles = parTiles * st.workers
		st.depSlots = make([][]int32, st.workers*st.tiles)
		st.depVals = make([][]float64, st.workers*st.tiles)
		st.ghostGid = make([][]int32, st.workers)
		st.ghostVal = make([][]float64, st.workers)
	}
	for b := range st.depSlots {
		st.depSlots[b] = st.depSlots[b][:0]
		st.depVals[b] = st.depVals[b][:0]
	}
	for w := range st.ghostGid {
		st.ghostGid[w] = st.ghostGid[w][:0]
		st.ghostVal[w] = st.ghostVal[w][:0]
	}
	st.genTask.st = st
	st.pool.Run(st.store.Len(), &st.genTask)
	st.redTask.st = st
	st.pool.Run(st.tiles, &st.redTask)

	// Ghost merge: ascending worker order replays the global particle
	// order, so table insertion order and per-slot accumulation order both
	// match the sequential path exactly.
	ops := 0
	for w := 0; w < st.workers; w++ {
		gids := st.ghostGid[w]
		vals := st.ghostVal[w]
		for e, gid := range gids {
			slot := st.table.Slot(int(gid))
			if 4*slot == len(st.ghostVals) {
				st.ghostVals = append(st.ghostVals, 0, 0, 0, 0)
			}
			st.ghostVals[4*slot] += vals[4*e]
			st.ghostVals[4*slot+1] += vals[4*e+1]
			st.ghostVals[4*slot+2] += vals[4*e+2]
			st.ghostVals[4*slot+3] += vals[4*e+3]
		}
		ops += len(gids)
	}
	return ops
}

// scatterGenTask is the generate pass: worker w deposits its particle
// range's contributions into its own buckets (owned slots, keyed by tile)
// and its own ghost list. Workers write disjoint bucket indices, so the
// pass is race-free.
type scatterGenTask struct{ st *rankState }

func (t *scatterGenTask) Work(w, lo, hi int) {
	st := t.st
	s := st.store
	fp := &st.fps[w].fp
	tiles := st.tiles
	span := len(st.farr.Rho)
	base := w * tiles
	q := s.Charge
	for i := lo; i < hi; i++ {
		st.ge.Footprint(s, i, fp)
		gamma := s.Gamma(i)
		vx, vy, vz := s.Px[i]/gamma, s.Py[i]/gamma, s.Pz[i]/gamma
		for k := 0; k < fp.N; k++ {
			wq := fp.W[k] * q
			gid := int(fp.Gid[k])
			if c := st.fields.Slot(gid); c >= 0 {
				b := base + c*tiles/span
				st.depSlots[b] = append(st.depSlots[b], int32(c))
				st.depVals[b] = append(st.depVals[b], wq*vx, wq*vy, wq*vz, wq)
				continue
			}
			st.ghostGid[w] = append(st.ghostGid[w], fp.Gid[k])
			st.ghostVal[w] = append(st.ghostVal[w], wq*vx, wq*vy, wq*vz, wq)
		}
	}
}

// scatterReduceTask is the reduce pass: each worker owns a contiguous range
// of tiles and folds every worker's bucket for those tiles into the field
// arrays, one contribution at a time, in ascending worker order.
type scatterReduceTask struct{ st *rankState }

func (t *scatterReduceTask) Work(_, tLo, tHi int) {
	st := t.st
	fa := st.farr
	tiles := st.tiles
	for tl := tLo; tl < tHi; tl++ {
		for w := 0; w < st.workers; w++ {
			slots := st.depSlots[w*tiles+tl]
			vals := st.depVals[w*tiles+tl]
			for e, c := range slots {
				fa.Jx[c] += vals[4*e]
				fa.Jy[c] += vals[4*e+1]
				fa.Jz[c] += vals[4*e+2]
				fa.Rho[c] += vals[4*e+3]
			}
		}
	}
}

// gatherPushTask interpolates E and B at each particle of the range and
// Boris-pushes it — per-particle independent, so any range split gives the
// same bits.
type gatherPushTask struct{ st *rankState }

func (t *gatherPushTask) Work(_, lo, hi int) {
	st := t.st
	st.ge.GatherPush(st.store, lo, hi, st.fields, st.table, st.ghostEB, st.cfg.Dt)
}

// moveTask advances each particle of the range — per-particle independent.
type moveTask struct{ st *rankState }

func (t *moveTask) Work(_, lo, hi int) {
	t.st.ge.MoveRange(t.st.store, lo, hi, t.st.cfg.Dt)
}
