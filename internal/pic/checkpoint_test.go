package pic

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"picpar/internal/ckpt"
	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/policy"
)

// TestCheckpointingIsFree: enabling checkpoint writes changes nothing the
// simulated world can observe — TotalTime, the fingerprint and every
// iteration record are byte-identical to a run without checkpointing,
// because shard writes are pure real-world I/O with no clock charges.
func TestCheckpointingIsFree(t *testing.T) {
	plain, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	cfg := base()
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 3
	ck, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck.TotalTime != plain.TotalTime {
		t.Errorf("TotalTime %.7f with checkpointing, %.7f without", ck.TotalTime, plain.TotalTime)
	}
	if ck.Fingerprint != plain.Fingerprint {
		t.Errorf("fingerprint %016x with checkpointing, %016x without", ck.Fingerprint, plain.Fingerprint)
	}
	if !reflect.DeepEqual(ck.Records, plain.Records) {
		t.Error("iteration records differ with checkpointing enabled")
	}
	if plain.Fingerprint == 0 {
		t.Error("fingerprint not populated")
	}
	// And the epochs really landed: 10 iterations, cadence 3 → 3, 6, 9,
	// minus retention (default keeps 2 complete plus newer partials).
	if got := ckpt.LatestComplete(cfg.CheckpointDir, 4); got != 9 {
		t.Errorf("latest complete epoch %d, want 9", got)
	}
}

// runRecovered runs cfg with Recover enabled against dir and returns the
// result.
func runRecovered(t *testing.T, cfg Config, dir string) *Result {
	t.Helper()
	cfg.Recover = true
	cfg.CheckpointDir = dir
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecoverResumesFromLatestEpoch: a recover-run over a directory left
// by a completed run resumes from the newest complete epoch — it replays
// only the tail iterations yet reproduces the full run bit for bit.
func TestRecoverResumesFromLatestEpoch(t *testing.T) {
	dir := t.TempDir()
	cfg := base()
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	cfg.CheckpointKeep = 100 // keep everything: the epoch set proves resumption
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 iterations, cadence 4 → epochs {4, 8}; the recover-run resumes at
	// 8 and writes with cadence 3, so only epoch 9 can appear. A run that
	// silently restarted from scratch would add epochs 3 and 6.
	cfg2 := cfg
	cfg2.CheckpointEvery = 3
	got := runRecovered(t, cfg2, dir)
	if got.TotalTime != ref.TotalTime || got.Fingerprint != ref.Fingerprint {
		t.Errorf("recovered run differs: total %.7f/%016x, want %.7f/%016x",
			got.TotalTime, got.Fingerprint, ref.TotalTime, ref.Fingerprint)
	}
	if !reflect.DeepEqual(got.Records, ref.Records) {
		t.Error("recovered run's records differ from the reference")
	}
	if epochs := ckpt.Epochs(dir); !reflect.DeepEqual(epochs, []int{4, 8, 9}) {
		t.Errorf("epochs after recover-run: %v, want [4 8 9] (resume at 8, one new at 9)", epochs)
	}
}

// TestRecoverFallsBackPastCorruptEpoch: a bit-flipped shard disqualifies
// its epoch; recovery agrees on the previous complete one and still
// reproduces the reference bit for bit.
func TestRecoverFallsBackPastCorruptEpoch(t *testing.T) {
	dir := t.TempDir()
	cfg := base()
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	cfg.CheckpointKeep = 100
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := ckpt.ShardPath(dir, 8, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x04
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := ckpt.LatestComplete(dir, 4); got != 4 {
		t.Fatalf("latest complete epoch after corruption %d, want 4", got)
	}
	got := runRecovered(t, cfg, dir)
	if got.TotalTime != ref.TotalTime || got.Fingerprint != ref.Fingerprint {
		t.Errorf("recovery from epoch 4 differs: total %.7f/%016x, want %.7f/%016x",
			got.TotalTime, got.Fingerprint, ref.TotalTime, ref.Fingerprint)
	}
}

// TestRecoverWithoutEpochsIsFreshStart: Recover over an empty directory
// degrades to a normal run, byte-identically — the one epoch-agreement
// Expose it performs is wiped from the clock and stats before the
// simulation starts.
func TestRecoverWithoutEpochsIsFreshStart(t *testing.T) {
	plain, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	cfg := base()
	cfg.CheckpointEvery = 4
	got := runRecovered(t, cfg, t.TempDir())
	if got.TotalTime != plain.TotalTime || got.Fingerprint != plain.Fingerprint {
		t.Errorf("fresh recover-run differs: total %.7f/%016x, want %.7f/%016x",
			got.TotalTime, got.Fingerprint, plain.TotalTime, plain.Fingerprint)
	}
}

// killOnce is a transport decorator that panics a *DeliveryError out of
// the first send for which due reports true, once per test — the
// in-process stand-in for kill -9 (the rank's endpoint tears down
// abruptly, peers see EOF).
type killOnce struct {
	comm.Transport
	due   func() bool
	fired *atomic.Bool
}

func (k killOnce) Send(dst int, tag comm.Tag, body any, nbytes int) {
	if k.due() && k.fired.CompareAndSwap(false, true) {
		panic(&comm.DeliveryError{Rank: k.Rank(), Peer: dst, Tag: tag, Reason: "injected rank death"})
	}
	k.Transport.Send(dst, tag, body, nbytes)
}

// TestElasticRecoveryByteIdentical is the in-Go gate for the whole
// recovery stack: a 4-rank world over real loopback TCP runs elastic
// NetRanks (RejoinAttempts set) with checkpointing on; rank 2 dies mid-run
// (injected delivery failure, abrupt teardown). Every rank parks,
// re-registers through the rendezvous, rolls back to the agreed epoch and
// continues — and the final fingerprint and TotalTime match an undisturbed
// run exactly. One row kills rank 2 on its 40th send; the other kills it
// inside a redistribution exchange after the first checkpoint, so the
// replay crosses a redistribution restored from its checkpointed bounds.
// (The multi-process version with a real kill -9 is scripts/netsmoke.sh.)
func TestElasticRecoveryByteIdentical(t *testing.T) {
	rows := []struct {
		name   string
		policy policy.Factory
		// due builds rank 2's kill condition for one run of that rank.
		due func(tr comm.Transport, dir string) func() bool
	}{
		{"40th send", nil, func(comm.Transport, string) func() bool {
			n := 0
			return func() bool { n++; return n == 40 }
		}},
		{"redistribution after the first checkpoint", policy.NewPeriodic(3),
			func(tr comm.Transport, dir string) func() bool {
				first := ckpt.ShardPath(dir, 3, tr.Rank())
				return func() bool {
					if tr.Stats().CurrentPhase() != machine.PhaseRedistribute {
						return false
					}
					_, err := os.Stat(first)
					return err == nil
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := base()
			if row.policy != nil {
				cfg.Policy = row.policy
			}
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if row.policy != nil && ref.NumRedistributions < 2 {
				t.Fatalf("%d redistributions — none after the first checkpoint", ref.NumRedistributions)
			}

			cfg.Recover = true
			cfg.CheckpointDir = t.TempDir()
			cfg.CheckpointEvery = 3
			res := runElastic(t, cfg, func(tr comm.Transport) func() bool { return row.due(tr, cfg.CheckpointDir) })
			if res.TotalTime != ref.TotalTime || res.Fingerprint != ref.Fingerprint {
				t.Errorf("recovered world differs: total %.7f/%016x, want %.7f/%016x",
					res.TotalTime, res.Fingerprint, ref.TotalTime, ref.Fingerprint)
			}
		})
	}
}

// runElastic runs cfg on a 4-rank world of elastic NetRanks over loopback
// TCP whose rank 2 dies once, on the first send for which due reports
// true, and returns rank 0's result. It fails the test unless the death
// fired, some rank rejoined and every rank finished.
func runElastic(t *testing.T, cfg Config, due func(tr comm.Transport) func() bool) *Result {
	t.Helper()
	var res *Result
	var mu sync.Mutex
	var attempts atomic.Int64
	fired := &atomic.Bool{}
	wrap := func(tr comm.Transport) comm.Transport {
		if tr.Rank() != 2 {
			return tr
		}
		return killOnce{Transport: tr, due: due(tr), fired: fired}
	}
	tmpl := commtest.NetTemplate(machine.CM5())
	tmpl.RejoinAttempts = 8
	_, errs := comm.LaunchLoopback(tmpl, 4, wrap, func(tr comm.Transport) {
		attempts.Add(1)
		r, rerr := RunRank(tr, cfg)
		if rerr != nil {
			panic(rerr)
		}
		if r != nil {
			mu.Lock()
			res = r
			mu.Unlock()
		}
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed: %v", rank, err)
		}
	}
	if !fired.Load() {
		t.Fatal("injected rank death never fired — the run was undisturbed")
	}
	if got := attempts.Load(); got <= 4 {
		t.Errorf("only %d rank attempts — no rank actually rejoined", got)
	}
	if res == nil {
		t.Fatal("rank 0 produced no result")
	}
	return res
}

// TestRecoverSkipsAnotherRunsEpochs: a recovering run restores only an
// epoch it could have written. A 30-iteration run leaves its last epochs
// in the directory; a 12-iteration elastic world whose rank 2 dies before
// its first checkpoint must skip them on every attempt, start afresh, and
// match an undisturbed 12-iteration run — then prune the longer run's
// epochs when it writes its own.
func TestRecoverSkipsAnotherRunsEpochs(t *testing.T) {
	dir := t.TempDir()
	long := base()
	long.Iterations = 30
	long.CheckpointDir = dir
	long.CheckpointEvery = 5
	if _, err := Run(long); err != nil {
		t.Fatal(err)
	}
	if epochs := ckpt.Epochs(dir); len(epochs) == 0 || epochs[0] <= 12 {
		t.Fatalf("the 30-iteration run left epochs %v, want only epochs beyond 12", epochs)
	}

	cfg := base()
	cfg.Iterations = 12
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recover = true
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 5
	res := runElastic(t, cfg, func(tr comm.Transport) func() bool {
		first, n := ckpt.ShardPath(dir, 5, tr.Rank()), 0
		return func() bool {
			n++
			_, err := os.Stat(first)
			return n == 20 && err != nil
		}
	})
	if res.TotalTime != ref.TotalTime || res.Fingerprint != ref.Fingerprint {
		t.Errorf("recovered world differs: total %.7f/%016x, want %.7f/%016x",
			res.TotalTime, res.Fingerprint, ref.TotalTime, ref.Fingerprint)
	}
	if epochs := ckpt.Epochs(dir); !reflect.DeepEqual(epochs, []int{5, 10}) {
		t.Errorf("epochs after the 12-iteration run: %v, want [5 10]", epochs)
	}
}

// TestRecoverRefusesMovedBlock: a shard records the mesh block its rank
// owned. Two ranks' blocks of one size swapped — what a build that tiles
// or numbers the mesh differently writes — leave every field array the
// right length, so only that record can refuse the restore: recovery must
// name the owned block, skip that epoch and replay from the one before,
// matching the undisturbed run.
func TestRecoverRefusesMovedBlock(t *testing.T) {
	dir := t.TempDir()
	cfg := base3()
	cfg.P = 2
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 5
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var shards [2]*ckpt.Shard
	for r := range shards {
		sh, err := ckpt.ReadShard(ckpt.ShardPath(dir, cfg.Iterations, r))
		if err != nil {
			t.Fatal(err)
		}
		shards[r] = sh
	}
	if shards[0].Block == shards[1].Block {
		t.Fatalf("both ranks recorded block %v", shards[0].Block)
	}
	shards[0].Block, shards[1].Block = shards[1].Block, shards[0].Block
	for _, sh := range shards {
		if err := ckpt.WriteShard(dir, sh); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Recover = true
	log := captureWarnings(t)
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for _, msg := range log.all() {
		if strings.Contains(msg, fmt.Sprintf("refusing checkpoint epoch %d", cfg.Iterations)) && strings.Contains(msg, "owned block") {
			refused++
		}
	}
	if refused != 2 {
		t.Errorf("%d ranks refused the swapped blocks, want 2; warnings: %q", refused, log.all())
	}
	if got.TotalTime != ref.TotalTime || got.Fingerprint != ref.Fingerprint {
		t.Errorf("recovery past the swapped epoch differs: total %.7f/%016x, want %.7f/%016x",
			got.TotalTime, got.Fingerprint, ref.TotalTime, ref.Fingerprint)
	}
}

// lateShards is a decorator under which every rank but 0 sleeps after the
// measurement Expose of each iteration ending a checkpoint epoch of
// cadence every, so rank 0 writes its shard and prunes while the others
// have not begun theirs. It counts Exposes: the boot's one, then one per
// iteration of a static run without diagnostics.
type lateShards struct {
	comm.Transport
	every, exposes int
}

func (l *lateShards) Unwrap() comm.Transport { return l.Transport }

func (l *lateShards) Expose(v any) []any {
	all := l.Transport.Expose(v)
	l.exposes++
	if iter := l.exposes - 2; l.Rank() != 0 && iter >= 0 && (iter+1)%l.every == 0 {
		time.Sleep(30 * time.Millisecond)
	}
	return all
}

// TestPruneLeavesNewestEpochs: whatever the ranks' timing, a finished run
// leaves exactly its CheckpointKeep newest complete epochs. Rank 0 counts
// only epochs every rank has finished while the run goes on, and prunes
// once more after the closing barrier. Pruning relative to the epoch rank
// 0 just wrote, with the other ranks still writing it, left one epoch too
// many — [20 25 30] for keep 2 — and nothing pruned it afterwards.
func TestPruneLeavesNewestEpochs(t *testing.T) {
	for keep, want := range map[int][]int{1: {30}, 2: {25, 30}} {
		cfg := base()
		cfg.Iterations = 30
		cfg.Verify = false
		cfg.Policy = policy.NewStatic()
		cfg.CheckpointDir = t.TempDir()
		cfg.CheckpointEvery = 5
		cfg.CheckpointKeep = keep
		cfg.Transport = func(tr comm.Transport) comm.Transport { return &lateShards{Transport: tr, every: 5} }
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if got := ckpt.Epochs(cfg.CheckpointDir); !reflect.DeepEqual(got, want) {
			t.Errorf("keep %d: run left epochs %v, want %v", keep, got, want)
		}
	}
}
