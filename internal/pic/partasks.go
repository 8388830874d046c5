// Shared-memory kernels of the per-iteration hot path, run over the rank's
// par.Pool: the gather/push and move range tasks, one call each into the
// geometry's range kernels (the only body those loops have — a 1-worker
// pool runs it inline). Both touch only particle i's own state per index,
// so a plain range split reproduces the one-worker run byte for byte at
// every worker count. The scatter is not among them: it is one sequential
// range-kernel call at every worker count (phases.go).

package pic

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
