package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"picpar/internal/raceflag"
)

// captureWarnings redirects the package warning hook into a
// concurrency-safe log for the duration of the test.
func captureWarnings(t *testing.T) *warnCapture {
	t.Helper()
	var c warnCapture
	old := warnf
	warnf = c.add
	t.Cleanup(func() { warnf = old })
	return &c
}

type warnCapture struct {
	mu   sync.Mutex
	msgs []string
}

func (c *warnCapture) add(format string, args ...any) {
	c.mu.Lock()
	c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *warnCapture) all() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

// TestShardIdentity: the probe reads exactly the identity prefix and still
// refuses corrupt files.
func TestShardIdentity(t *testing.T) {
	dir := t.TempDir()
	sh := sampleShard(2, 2)
	sh.Epoch = 6
	sh.Size = 4
	if err := WriteShard(dir, sh); err != nil {
		t.Fatal(err)
	}
	path := ShardPath(dir, 6, 2)
	e, r, s, err := ShardIdentity(path)
	if err != nil || e != 6 || r != 2 || s != 4 {
		t.Errorf("identity %d/%d/%d err=%v, want 6/2/4", e, r, s, err)
	}
	if _, _, _, err := ShardIdentity(ShardPath(dir, 6, 3)); err == nil {
		t.Error("missing shard produced an identity")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ShardIdentity(path); err == nil {
		t.Error("bit-flipped shard produced an identity")
	}
}

// TestShardIdentityMatchesDecodeShard: the streamed probe refuses every
// image DecodeShard refuses, with the same *CodecError, and reads the
// identity DecodeShard decodes from every image it accepts.
func TestShardIdentityMatchesDecodeShard(t *testing.T) {
	dir := t.TempDir()
	for _, dims := range []int{2, 3} {
		img := EncodeShard(nil, sampleShard(dims, 1))
		images := [][]byte{img}
		for _, tc := range corruptImages {
			images = append(images, tc.mutate(append([]byte(nil), img...)))
		}
		for i, b := range images {
			name := "intact"
			if i > 0 {
				name = corruptImages[i-1].name
			}
			path := filepath.Join(dir, fmt.Sprintf("%d-%d.ckpt", dims, i))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			e, r, s, err := ShardIdentity(path)
			sh, derr := DecodeShard(b)
			if derr != nil {
				var ce *CodecError
				if !errors.As(err, &ce) {
					t.Errorf("dims %d, %s: ShardIdentity gave %d/%d/%d, %v; DecodeShard refused it with %v",
						dims, name, e, r, s, err, derr)
				} else if err.Error() != derr.Error() {
					t.Errorf("dims %d, %s: ShardIdentity error %q, DecodeShard error %q", dims, name, err, derr)
				}
				continue
			}
			if err != nil || e != sh.Epoch || r != sh.Rank || s != sh.Size {
				t.Errorf("dims %d, %s: ShardIdentity gave %d/%d/%d, %v; want %d/%d/%d",
					dims, name, e, r, s, err, sh.Epoch, sh.Rank, sh.Size)
			}
		}
	}
}

// TestShardIdentityAllocs pins the streamed scan: once its read buffer is
// in the pool, probing a shard of over 1 MB allocates a few small objects
// (the open file), never a buffer the size of the file.
func TestShardIdentityAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	dir := t.TempDir()
	sh := sampleShard(2, 1)
	s := sh.Particles
	for i := s.Len(); i < 1<<15; i++ {
		f := float64(i)
		s.X, s.Y = append(s.X, f), append(s.Y, f)
		s.Px, s.Py, s.Pz = append(s.Px, f), append(s.Py, f), append(s.Pz, f)
		s.ID, s.Key = append(s.ID, f), append(s.Key, f)
	}
	if err := WriteShard(dir, sh); err != nil {
		t.Fatal(err)
	}
	path := ShardPath(dir, sh.Epoch, sh.Rank)
	if fi, err := os.Stat(path); err != nil || fi.Size() < 1<<20 {
		t.Fatalf("shard %s: %v, size under 1 MB", path, err)
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 { // the first scan warms the pool
			runtime.ReadMemStats(&m0)
		}
		if _, _, _, err := ShardIdentity(path); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("warm scan: %.0f B per shard", per)
	if per >= 16<<10 {
		t.Errorf("warm ShardIdentity allocates %.0f B per scan, want < 16 KiB", per)
	}
}

// TestLatestCompleteEmptyAndMissingDir: the scan over nothing is a clean
// -1 — no panic, no warning, no phantom epoch.
func TestLatestCompleteEmptyAndMissingDir(t *testing.T) {
	warnings := captureWarnings(t)
	if got := LatestComplete(t.TempDir(), 4); got != -1 {
		t.Errorf("empty dir: LatestComplete = %d, want -1", got)
	}
	if got := LatestComplete("/nonexistent/picpar-ckpt", 4); got != -1 {
		t.Errorf("missing dir: LatestComplete = %d, want -1", got)
	}
	if msgs := warnings.all(); len(msgs) != 0 {
		t.Errorf("empty scans warned: %v", msgs)
	}
}

// TestEpochCompleteZeroShardDir: an epoch directory holding no shard files
// (a crash between MkdirAll and the first write) is incomplete — skipped
// silently, like any partial epoch.
func TestEpochCompleteZeroShardDir(t *testing.T) {
	warnings := captureWarnings(t)
	dir := t.TempDir()
	writeEpoch(t, dir, 3, 2)
	if err := os.MkdirAll(EpochDir(dir, 9), 0o755); err != nil {
		t.Fatal(err)
	}
	if EpochComplete(dir, 9, 2) {
		t.Error("zero-shard epoch scanned as complete")
	}
	if got := LatestComplete(dir, 2); got != 3 {
		t.Errorf("LatestComplete = %d, want fallback to 3", got)
	}
	if msgs := warnings.all(); len(msgs) != 0 {
		t.Errorf("normal partial epoch warned: %v", msgs)
	}
}

// TestEpochCompleteRejectsForeignWorldSize is the trap this probe exists
// for: an epoch written by an 8-rank world has ranks 0..3 present and
// CRC-valid, so a naive existence scan run by a 4-rank world would adopt
// it — and then panic at restore. The identity probe sees Size=8, warns,
// and treats the epoch as incomplete.
func TestEpochCompleteRejectsForeignWorldSize(t *testing.T) {
	warnings := captureWarnings(t)
	dir := t.TempDir()
	writeEpoch(t, dir, 5, 8)
	if EpochComplete(dir, 5, 4) {
		t.Fatal("epoch written by world size 8 scanned complete for size 4")
	}
	if got := LatestComplete(dir, 4); got != -1 {
		t.Errorf("LatestComplete for size 4 = %d, want -1", got)
	}
	msgs := warnings.all()
	if len(msgs) == 0 {
		t.Fatal("foreign-world epoch was skipped silently")
	}
	if !strings.Contains(msgs[0], "of 8") || !strings.Contains(msgs[0], "of 4") {
		t.Errorf("warning does not name both world sizes: %q", msgs[0])
	}
	// The world that actually wrote the epoch still adopts it.
	if got := LatestComplete(dir, 8); got != 5 {
		t.Errorf("LatestComplete for size 8 = %d, want 5", got)
	}
}

// TestEpochCompleteRejectsMisplacedEpoch: a renamed (or mis-copied) epoch
// directory holds shards that are individually intact but declare a
// different epoch number — refused loudly, never restored as the wrong
// point in time.
func TestEpochCompleteRejectsMisplacedEpoch(t *testing.T) {
	warnings := captureWarnings(t)
	dir := t.TempDir()
	writeEpoch(t, dir, 5, 2)
	if err := os.Rename(EpochDir(dir, 5), EpochDir(dir, 7)); err != nil {
		t.Fatal(err)
	}
	if EpochComplete(dir, 7, 2) {
		t.Fatal("renamed epoch directory scanned as complete")
	}
	if got := LatestComplete(dir, 2); got != -1 {
		t.Errorf("LatestComplete = %d, want -1", got)
	}
	if len(warnings.all()) == 0 {
		t.Error("misplaced epoch was skipped silently")
	}
}

// TestEpochCompleteRejectsSwappedRankFiles: two CRC-valid shard files with
// their names exchanged would restore each rank into the other's state;
// the declared-rank check catches the swap.
func TestEpochCompleteRejectsSwappedRankFiles(t *testing.T) {
	warnings := captureWarnings(t)
	dir := t.TempDir()
	writeEpoch(t, dir, 4, 2)
	p0, p1 := ShardPath(dir, 4, 0), ShardPath(dir, 4, 1)
	tmp := filepath.Join(EpochDir(dir, 4), "swap")
	for _, mv := range [][2]string{{p0, tmp}, {p1, p0}, {tmp, p1}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if EpochComplete(dir, 4, 2) {
		t.Fatal("epoch with swapped rank files scanned as complete")
	}
	if len(warnings.all()) == 0 {
		t.Error("swapped rank files were skipped silently")
	}
}

// TestPruneEdges: pruning nothing succeeds, keep clamps to 1, and an old
// zero-shard partial epoch is removed while a newer one survives.
func TestPruneEdges(t *testing.T) {
	if err := Prune(t.TempDir(), 8, 4, 2); err != nil {
		t.Errorf("prune of empty dir: %v", err)
	}
	if err := Prune("/nonexistent/picpar-ckpt", 8, 4, 2); err != nil {
		t.Errorf("prune of missing dir: %v", err)
	}

	dir := t.TempDir()
	writeEpoch(t, dir, 4, 2)
	writeEpoch(t, dir, 8, 2)
	// Zero-shard partials: epoch 2 is older than every retained epoch and
	// must go; epoch 9, the one being written, is newer than the newest
	// complete epoch and must stay (it may still be assembling).
	for _, e := range []int{2, 9} {
		if err := os.MkdirAll(EpochDir(dir, e), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := Prune(dir, 9, 2, 0); err != nil { // keep 0 clamps to 1
		t.Fatal(err)
	}
	if got, want := Epochs(dir), []int{8, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("after prune: epochs %v, want %v", got, want)
	}
	if got := LatestComplete(dir, 2); got != 8 {
		t.Errorf("after prune: LatestComplete = %d, want 8", got)
	}
}
