package pic

import (
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"picpar/internal/ckpt"
	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
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
// one rank's Nth send, once per process lifetime — the in-process stand-in
// for kill -9 (the rank's endpoint tears down abruptly, peers see EOF).
type killOnce struct {
	comm.Transport
	sends *atomic.Int64
	fired *atomic.Bool
	after int64
}

func (k killOnce) Send(dst int, tag comm.Tag, body any, nbytes int) {
	if k.sends.Add(1) == k.after && k.fired.CompareAndSwap(false, true) {
		panic(&comm.DeliveryError{Rank: k.Rank(), Peer: dst, Tag: tag, Reason: "chaos: injected rank death"})
	}
	k.Transport.Send(dst, tag, body, nbytes)
}

// TestElasticRecoveryByteIdentical is the in-Go chaos gate for the whole
// recovery stack: a 4-rank world over real loopback TCP runs elastic
// NetRanks (RejoinAttempts set) with checkpointing on; rank 2 dies mid-run
// (injected delivery failure, abrupt teardown). Every rank parks, re-registers
// through the rendezvous, rolls back to the agreed epoch and continues —
// and the final fingerprint and TotalTime match an undisturbed run
// exactly. (The multi-process version with a real kill -9 is
// scripts/netsmoke.sh.)
func TestElasticRecoveryByteIdentical(t *testing.T) {
	ref, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}

	cfg := base()
	cfg.Recover = true
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 3
	var res *Result
	var mu sync.Mutex
	var attempts atomic.Int64
	fired := &atomic.Bool{}
	wrap := func(tr comm.Transport) comm.Transport {
		if tr.Rank() != 2 {
			return tr
		}
		return killOnce{Transport: tr, sends: &atomic.Int64{}, fired: fired, after: 40}
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
		t.Fatal("chaos injection never fired — the run was undisturbed")
	}
	if got := attempts.Load(); got <= 4 {
		t.Errorf("only %d rank attempts — no rank actually rejoined", got)
	}
	if res == nil {
		t.Fatal("rank 0 produced no result")
	}
	if res.TotalTime != ref.TotalTime || res.Fingerprint != ref.Fingerprint {
		t.Errorf("recovered world differs: total %.7f/%016x, want %.7f/%016x",
			res.TotalTime, res.Fingerprint, ref.TotalTime, ref.Fingerprint)
	}
}
