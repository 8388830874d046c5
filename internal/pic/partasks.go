// Shared-memory kernels of the per-iteration hot path, run over the rank's
// par.Pool: the gather/push and move range tasks, one call each into the
// geometry's range kernels (the only body those loops have — a 1-worker
// pool runs it inline). Both touch only particle i's own state per index,
// so a plain range split reproduces the one-worker run byte for byte at
// every worker count. The scatter is not among them: it is one sequential
// range-kernel call at every worker count (phases.go).

package pic

import (
	"unsafe"

	"picpar/internal/geom"
)

// workerScratch is the footprint scratch observeCosts' vertex-by-vertex
// walk fills through the geometry interface (a local would escape to the
// heap at every call). It is rewritten for every particle, so it is padded
// to 256 bytes and kept last in rankState: no two ranks' scratch can share
// a cache line or the adjacent line the hardware prefetches with it.
// Unpadded neighbours measured +15 % to +80 % on a steady iteration.
type workerScratch struct {
	fp geom.Footprint
	_  [256 - unsafe.Sizeof(geom.Footprint{})]byte
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
