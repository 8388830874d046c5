// Checkpoint/restart integration: building a rank's restart shard from the
// live rankState, restoring the state from a shard, agreeing on the epoch
// to roll back to, and fingerprinting the final physics state.
//
// Checkpoint writes are pure real-world I/O: no communication, no
// simulated-clock charges — a run with checkpointing enabled is
// byte-identical (TotalTime, records, fingerprint) to one without. The
// recovery path does communicate (one epoch-agreement Expose), but a
// recover-run that finds no usable epoch wipes those charges and proceeds
// byte-identically to a fresh run.

package pic

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"picpar/internal/ckpt"
	"picpar/internal/comm"
	"picpar/internal/geom"
	"picpar/internal/machine"
	"picpar/internal/policy"
)

// maybeCheckpoint writes this rank's shard when iter completes an epoch
// boundary ((iter+1) divisible by the cadence).
func (st *rankState) maybeCheckpoint(iter int, res *Result) {
	cfg := st.cfg
	if cfg.CheckpointDir == "" || cfg.CheckpointEvery <= 0 || (iter+1)%cfg.CheckpointEvery != 0 {
		return
	}
	st.writeEpoch(iter+1, res)
}

// checkpointNow writes a drain checkpoint at the current iteration
// boundary regardless of the cadence — the graceful-stop path — unless the
// cadence just wrote this very epoch (or checkpointing is off).
func (st *rankState) checkpointNow(iter int, res *Result) {
	cfg := st.cfg
	if cfg.CheckpointDir == "" {
		return
	}
	if cfg.CheckpointEvery > 0 && (iter+1)%cfg.CheckpointEvery == 0 {
		return // maybeCheckpoint already pinned this epoch
	}
	st.writeEpoch(iter+1, res)
}

// writeEpoch writes this rank's shard for one epoch. Failures degrade to a
// warning: a sick disk must not kill a healthy simulation, it only ages
// the epoch recovery would restart from. Rank 0 prunes the directory
// relative to this epoch after a successful write.
func (st *rankState) writeEpoch(epoch int, res *Result) {
	cfg := st.cfg
	sh := st.buildShard(epoch, res)
	if err := ckpt.WriteShard(cfg.CheckpointDir, sh); err != nil {
		warnf("picpar: rank %d checkpoint epoch %d: %v", st.r.Rank(), epoch, err)
		return
	}
	if st.r.Rank() == 0 {
		if err := ckpt.Prune(cfg.CheckpointDir, epoch, st.r.Size(), cfg.CheckpointKeep); err != nil {
			warnf("picpar: checkpoint prune: %v", err)
		}
	}
}

// warnf emits configuration/degradation warnings; a package variable so
// tests can capture them (the par.EnvProcs / comm.EnvWatchdog pattern).
var warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// parseCrashSpec parses the PICPAR_CRASH chaos spec "rank:iter:marker".
// The empty spec means "hook disarmed" (silently). Anything else must
// parse completely — non-numeric rank or iteration, negative values, a
// missing or empty marker path — or the spec is rejected loudly: a warning
// naming the bad value, then a disarmed hook, mirroring EnvWatchdog /
// EnvProcs / EnvDir. A typo'd chaos spec must never silently turn into
// "no chaos" without telling the operator.
func parseCrashSpec(spec string) (rank, iter int, marker string, armed bool) {
	if spec == "" {
		return 0, 0, "", false
	}
	reject := func(why string) (int, int, string, bool) {
		warnf("picpar: malformed PICPAR_CRASH=%q (%s); crash hook disarmed (want \"rank:iter:marker\")", spec, why)
		return 0, 0, "", false
	}
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) != 3 {
		return reject("want 3 colon-separated fields")
	}
	r, err := strconv.Atoi(parts[0])
	if err != nil {
		return reject("rank is not an integer")
	}
	if r < 0 {
		return reject("rank is negative")
	}
	it, err := strconv.Atoi(parts[1])
	if err != nil {
		return reject("iteration is not an integer")
	}
	if it < 0 {
		return reject("iteration is negative")
	}
	if parts[2] == "" {
		return reject("marker path is empty")
	}
	return r, it, parts[2], true
}

// armCrashHook parses PICPAR_CRASH once per rank run, so a malformed spec
// warns once instead of once per iteration.
func (st *rankState) armCrashHook() {
	st.crashRank, st.crashIter, st.crashMarker, st.crashArmed =
		parseCrashSpec(os.Getenv("PICPAR_CRASH"))
}

// maybeCrash is the chaos hook the kill-and-recover CI gates drive:
// PICPAR_CRASH="rank:iter:marker" makes that rank SIGKILL itself at the
// top of that iteration — a real, unhandled kill -9 from the inside. The
// marker file is an O_EXCL single-shot latch, so the respawned replacement
// (which inherits the same environment) sails past the crash site on
// replay. Marker I/O errors are ignored (the latch already tripped, or the
// path is unwritable — the hook must never break a production run);
// malformed specs are rejected loudly by parseCrashSpec at arming time.
func (st *rankState) maybeCrash(iter int) {
	if !st.crashArmed || st.r.Rank() != st.crashRank || iter != st.crashIter {
		return
	}
	marker := st.crashMarker
	f, err := os.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return // latch already tripped (or unwritable): run on
	}
	f.Close()
	p, _ := os.FindProcess(os.Getpid())
	_ = p.Kill()
	select {} // SIGKILL is asynchronous; never proceed past the crash site
}

// buildShard assembles this rank's restart image at an epoch boundary.
func (st *rankState) buildShard(epoch int, res *Result) *ckpt.Shard {
	r := st.r
	cfg := st.cfg
	sh := &ckpt.Shard{
		Epoch:        epoch,
		Rank:         r.Rank(),
		Size:         r.Size(),
		Dims:         cfg.Dims,
		NumParticles: cfg.NumParticles,
		Seed:         cfg.Seed,
		Iterations:   cfg.Iterations,
		PolicyName:   st.pol.Name(),
		ClockNow:     r.Clock().Now(),
		RunStart:     st.runStart,
		InitTime:     st.initTime,
		Stats:        r.Stats().Snapshot(),
		Particles:    st.store,
		UpperKey:     0,
	}
	if cfg.Dims == 3 {
		sh.GridNx, sh.GridNy, sh.GridNz = cfg.Grid3.Nx, cfg.Grid3.Ny, cfg.Grid3.Nz
	} else {
		sh.GridNx, sh.GridNy = cfg.Grid.Nx, cfg.Grid.Ny
	}
	sh.Block = ownedBlock(st.ge, r.Rank())
	fa := st.farr
	src := [ckpt.NumFieldArrays][]float64{fa.Ex, fa.Ey, fa.Ez, fa.Bx, fa.By, fa.Bz, fa.Jx, fa.Jy, fa.Jz, fa.Rho}
	for i := range src {
		sh.Fields[i] = src[i]
	}
	// Bounds and ledger share the rank's shard scratch: WriteShard encodes
	// the shard before writeEpoch returns, so the next epoch may reuse it.
	buf := st.inc.ExportBounds(st.shardBuf[:0])
	nb := len(buf)
	buf = st.ledger().Export(buf)
	st.shardBuf = buf
	cells := st.led.Cells()
	sh.Bounds, sh.UpperKey = buf[:nb-1], buf[nb-1]
	sh.LedgerCost, sh.LedgerCount = buf[nb:nb+cells], buf[nb+cells:]
	if sc, ok := st.pol.(policy.StateCodec); ok {
		sh.PolicyState = sc.AppendState(nil)
	}
	if r.Rank() == 0 {
		sh.Records = slices.Clone(res.Records[:epoch])
	}
	return sh
}

// agreeCheckpoint finds the newest complete epoch within the run's
// iterations whose shard readShard accepts, agrees the minimum over ranks
// (every rank must be able to restore the same epoch), and loads this
// rank's shard. When no epoch is agreed it wipes the agreement's simulated
// charges — so the ensuing fresh start is byte-identical to a
// non-recovering run — and returns nil.
func (st *rankState) agreeCheckpoint() *ckpt.Shard {
	r := st.r
	dir := st.cfg.CheckpointDir
	local, epochs := -1, ckpt.Epochs(dir)
	var sh *ckpt.Shard
	var err error
	for i := len(epochs) - 1; i >= 0 && local < 0; i-- {
		if e := epochs[i]; e <= st.cfg.Iterations && ckpt.EpochComplete(dir, e, r.Size()) {
			if sh, err = st.readShard(e); err != nil {
				warnf("%v; skipping it", err)
			} else {
				local = e
			}
		}
	}
	agreed := int(-comm.ExposeMaxFloat64(r, -float64(local)))
	if agreed < 0 {
		*r.Stats() = machine.Stats{}
		r.Clock().Reset()
		return nil
	}
	if agreed != local {
		if sh, err = st.readShard(agreed); err != nil {
			panic(err.Error())
		}
	}
	return sh
}

// readShard reads this rank's shard of epoch, refusing one written by a
// differently configured run, whose restore would not replay its physics.
func (st *rankState) readShard(epoch int) (*ckpt.Shard, error) {
	r := st.r
	cfg := st.cfg
	fail := func(format string, args ...any) (*ckpt.Shard, error) {
		return nil, fmt.Errorf("pic: rank %d refusing checkpoint epoch %d: %s",
			r.Rank(), epoch, fmt.Sprintf(format, args...))
	}
	sh, err := ckpt.ReadShard(ckpt.ShardPath(cfg.CheckpointDir, epoch, r.Rank()))
	if err != nil {
		return fail("%v", err)
	}
	if sh.Epoch != epoch {
		return fail("shard is epoch %d", sh.Epoch)
	}
	if sh.Rank != r.Rank() || sh.Size != r.Size() {
		return fail("identity mismatch: shard rank %d of %d, world rank %d of %d",
			sh.Rank, sh.Size, r.Rank(), r.Size())
	}
	if sh.Dims != cfg.Dims {
		return fail("dimensionality %d (run has %d)", sh.Dims, cfg.Dims)
	}
	nx, ny, nz := cfg.Grid.Nx, cfg.Grid.Ny, 0
	if cfg.Dims == 3 {
		nx, ny, nz = cfg.Grid3.Nx, cfg.Grid3.Ny, cfg.Grid3.Nz
	}
	if sh.GridNx != nx || sh.GridNy != ny || sh.GridNz != nz {
		return fail("grid %dx%dx%d (run has %dx%dx%d)", sh.GridNx, sh.GridNy, sh.GridNz, nx, ny, nz)
	}
	// Blocks of one size may be tiled or numbered differently by another
	// build; the field arrays would then load into the wrong block.
	if b := ownedBlock(st.ge, r.Rank()); sh.Block != b {
		return fail("owned block %v (run owns %v)", sh.Block, b)
	}
	if sh.NumParticles != cfg.NumParticles || sh.Seed != cfg.Seed {
		return fail("population n=%d seed=%d (run has n=%d seed=%d)",
			sh.NumParticles, sh.Seed, cfg.NumParticles, cfg.Seed)
	}
	if sh.Iterations != cfg.Iterations {
		return fail("run length %d (run has %d)", sh.Iterations, cfg.Iterations)
	}
	if sh.PolicyName != st.pol.Name() {
		return fail("policy %q (run has %q)", sh.PolicyName, st.pol.Name())
	}
	if sh.Rank == 0 && len(sh.Records) != sh.Epoch {
		return fail("%d records for %d completed iterations", len(sh.Records), sh.Epoch)
	}
	if sh.Particles.Dims() != cfg.Dims {
		return fail("%d-D particles (run has %d-D)", sh.Particles.Dims(), cfg.Dims)
	}
	return sh, nil
}

// ownedBlock is rank r's owned mesh block as a shard records it: i0, i1,
// j0, j1, k0, k1, with k0 = k1 = 0 in 2-D.
func ownedBlock(ge geom.Geometry, r int) (b [6]int) {
	switch g := ge.(type) {
	case *geom.G2:
		b[0], b[1], b[2], b[3] = g.D.Bounds(r)
	case *geom.G3:
		b[0], b[1], b[2], b[3], b[4], b[5] = g.D.Bounds(r)
	}
	return b
}

// restoreShard reinstates a shard into the rank's live state: particles,
// fields, partition bounds, policy state, ledger estimates, the stats
// ledger, the simulated clock, and (on rank 0) the completed iteration
// records and cursors. After it returns, the rank is exactly where it was
// when the shard was written.
func (st *rankState) restoreShard(sh *ckpt.Shard, res *Result) {
	r := st.r
	st.store = sh.Particles
	// Prime adopts the shard's store into the incremental sorter's sets;
	// the checkpointed bounds below then replace the ones it derives.
	st.inc.Prime(st.store)
	fa := st.farr
	dst := [ckpt.NumFieldArrays][]float64{fa.Ex, fa.Ey, fa.Ez, fa.Bx, fa.By, fa.Bz, fa.Jx, fa.Jy, fa.Jz, fa.Rho}
	for i := range dst {
		if len(dst[i]) != len(sh.Fields[i]) {
			panic(fmt.Sprintf("pic: rank %d restore epoch %d: field array %d has %d values, geometry wants %d",
				r.Rank(), sh.Epoch, i, len(sh.Fields[i]), len(dst[i])))
		}
		copy(dst[i], sh.Fields[i])
	}
	bounds := append(sh.Bounds, sh.UpperKey)
	if err := st.inc.ImportBounds(bounds); err != nil {
		panic(fmt.Sprintf("pic: rank %d restore epoch %d: %v", r.Rank(), sh.Epoch, err))
	}
	if sc, ok := st.pol.(policy.StateCodec); ok {
		if err := sc.RestoreState(sh.PolicyState); err != nil {
			panic(fmt.Sprintf("pic: rank %d restore epoch %d: %v", r.Rank(), sh.Epoch, err))
		}
	} else if len(sh.PolicyState) != 0 {
		panic(fmt.Sprintf("pic: rank %d restore epoch %d: %d policy-state values for a policy without checkpoint support",
			r.Rank(), sh.Epoch, len(sh.PolicyState)))
	}
	ledger := append(sh.LedgerCost, sh.LedgerCount...)
	if err := st.ledger().Import(ledger); err != nil {
		panic(fmt.Sprintf("pic: rank %d restore epoch %d: %v", r.Rank(), sh.Epoch, err))
	}
	*r.Stats() = sh.Stats
	r.Clock().Reset()
	r.Clock().AdvanceTo(sh.ClockNow)
	st.runStart = sh.RunStart
	st.initTime = sh.InitTime
	if r.Rank() == 0 {
		res.InitTime = sh.InitTime
		copy(res.Records, sh.Records)
	}
}

// FNV-64a constants for the physics fingerprint.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvFloat64s(h uint64, vals []float64) uint64 {
	for _, v := range vals {
		u := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h = (h ^ (u >> s & 0xff)) * fnvPrime64
		}
	}
	return h
}

func fnvUint64(h, u uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = (h ^ (u >> s & 0xff)) * fnvPrime64
	}
	return h
}

// fingerprint hashes this rank's final physics state: every particle
// column in canonical order, then every field array.
func (st *rankState) fingerprint() uint64 {
	h := uint64(fnvOffset64)
	s := st.store
	h = fnvFloat64s(h, s.X)
	h = fnvFloat64s(h, s.Y)
	if s.Z != nil {
		h = fnvFloat64s(h, s.Z)
	}
	h = fnvFloat64s(h, s.Px)
	h = fnvFloat64s(h, s.Py)
	h = fnvFloat64s(h, s.Pz)
	h = fnvFloat64s(h, s.ID)
	h = fnvFloat64s(h, s.Key)
	fa := st.farr
	for _, arr := range [ckpt.NumFieldArrays][]float64{fa.Ex, fa.Ey, fa.Ez, fa.Bx, fa.By, fa.Bz, fa.Jx, fa.Jy, fa.Jz, fa.Rho} {
		h = fnvFloat64s(h, arr)
	}
	return h
}

// worldFingerprint folds every rank's local fingerprint in rank order.
// Runs after the TotalTime measurement, so its barrier charges cannot
// perturb any golden figure.
func (st *rankState) worldFingerprint() uint64 {
	vals := st.r.Expose(st.fingerprint())
	h := uint64(fnvOffset64)
	for i, v := range vals {
		u, ok := v.(uint64)
		if !ok {
			panic(fmt.Sprintf("pic: rank %d published %T instead of its fingerprint", i, v))
		}
		h = fnvUint64(h, u)
	}
	return h
}
