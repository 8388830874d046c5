// On-disk layout and atomic I/O for checkpoint epochs.
//
// A checkpoint directory holds one subdirectory per epoch,
// `epoch-%08d/`, containing one `rank-<r>.ckpt` file per rank. An epoch
// is *complete* when all `size` shard files exist and pass the header +
// CRC check; recovery only ever restores from a complete epoch, so a
// crash between two ranks' writes simply leaves a partial epoch that the
// scan skips. Each shard is written atomically: temp file in the epoch
// directory, write, fsync, rename, fsync of the directory.

package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"picpar/internal/wire"
)

// EpochDir returns the directory of one epoch under dir.
func EpochDir(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("epoch-%08d", epoch))
}

// ShardPath returns the path of one rank's shard file in an epoch.
func ShardPath(dir string, epoch, rank int) string {
	return filepath.Join(EpochDir(dir, epoch), fmt.Sprintf("rank-%d.ckpt", rank))
}

// WriteShard atomically writes sh into dir's epoch layout: the bytes land
// in a temp file first and only an fsynced, complete image is renamed to
// its final name, so readers never observe a torn shard.
func WriteShard(dir string, sh *Shard) (err error) {
	ed := EpochDir(dir, sh.Epoch)
	if err := os.MkdirAll(ed, 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	buf := wire.GetBytes(1 << 16)
	defer func() { wire.PutBytes(buf) }()
	buf = EncodeShard(buf, sh)

	f, err := os.CreateTemp(ed, fmt.Sprintf(".rank-%d-*.tmp", sh.Rank))
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if _, werr := f.Write(buf); werr != nil {
		f.Close()
		return fmt.Errorf("ckpt: write %s: %w", tmp, werr)
	}
	if serr := f.Sync(); serr != nil {
		f.Close()
		return fmt.Errorf("ckpt: fsync %s: %w", tmp, serr)
	}
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("ckpt: close %s: %w", tmp, cerr)
	}
	final := ShardPath(dir, sh.Epoch, sh.Rank)
	if rerr := os.Rename(tmp, final); rerr != nil {
		return fmt.Errorf("ckpt: rename %s: %w", final, rerr)
	}
	if d, derr := os.Open(ed); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// ReadShard reads and fully decodes one shard file.
func ReadShard(path string) (*Shard, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return DecodeShard(b)
}

// ShardIdentity reads just the identity prefix of a shard file — the
// epoch, rank and world size it was written as — after validating the
// header and CRC. It never decodes the bulk payload, so the completeness
// scan stays cheap while still refusing shards that merely *look* intact.
func ShardIdentity(path string) (epoch, rank, size int, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("ckpt: %w", err)
	}
	payload, err := checkImage(b)
	if err != nil {
		return 0, 0, 0, err
	}
	if epoch, payload, err = takeInt(payload, "epoch"); err != nil {
		return 0, 0, 0, err
	}
	if rank, payload, err = takeInt(payload, "rank"); err != nil {
		return 0, 0, 0, err
	}
	if size, _, err = takeInt(payload, "size"); err != nil {
		return 0, 0, 0, err
	}
	return epoch, rank, size, nil
}

// warnf emits degradation warnings; a package variable so tests can
// capture them (the par.EnvProcs / comm.EnvWatchdog pattern).
var warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// Epochs lists the epoch numbers present under dir (complete or not), in
// ascending order. A missing directory is an empty list.
func Epochs(dir string) []int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var epochs []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(e.Name(), "epoch-%d", &n); err == nil &&
			n >= 0 && e.Name() == fmt.Sprintf("epoch-%08d", n) {
			epochs = append(epochs, n)
		}
	}
	sort.Ints(epochs)
	return epochs
}

// EpochComplete reports whether all size shards of an epoch exist, pass
// the CRC check, and declare the identity the scan expects (this epoch,
// this rank, this world size). A missing or corrupt shard is the normal
// crash artifact and fails silently; a shard whose *declared* identity
// disagrees — an epoch written by a different world size, or a file
// shuffled between directories — is anomalous and warns loudly before the
// epoch is treated as incomplete. Without the identity probe, an epoch
// left by an 8-rank run would scan "complete" for a 4-rank world (ranks
// 0..3 exist and are CRC-valid) and then blow up at restore time.
func EpochComplete(dir string, epoch, size int) bool {
	for r := 0; r < size; r++ {
		path := ShardPath(dir, epoch, r)
		se, sr, ss, err := ShardIdentity(path)
		if err != nil {
			return false
		}
		if se != epoch || sr != r || ss != size {
			warnf("ckpt: %s declares epoch %d rank %d of %d, scan wants epoch %d rank %d of %d; skipping epoch",
				path, se, sr, ss, epoch, r, size)
			return false
		}
	}
	return true
}

// LatestComplete scans dir for the newest complete epoch for a world of
// the given size, falling back across truncated, corrupt or partially
// written epochs. Returns -1 when no complete epoch exists.
func LatestComplete(dir string, size int) int {
	epochs := Epochs(dir)
	for i := len(epochs) - 1; i >= 0; i-- {
		if EpochComplete(dir, epochs[i], size) {
			return epochs[i]
		}
	}
	return -1
}

// Prune enforces bounded retention: the newest keep complete epochs are
// retained (along with any newer, still-assembling partial epochs), and
// everything older is removed. Best-effort — the first removal error is
// returned but the walk continues.
func Prune(dir string, size, keep int) error {
	if keep < 1 {
		keep = 1
	}
	epochs := Epochs(dir)
	var first error
	complete := 0
	for i := len(epochs) - 1; i >= 0; i-- {
		if complete >= keep {
			if err := os.RemoveAll(EpochDir(dir, epochs[i])); err != nil && first == nil {
				first = err
			}
			continue
		}
		if EpochComplete(dir, epochs[i], size) {
			complete++
		}
	}
	return first
}

// EnvDir resolves the checkpoint directory from PICPAR_CKPT_DIR, falling
// back to def when unset. A value naming an existing non-directory is
// malformed and rejected loudly (warn + fallback), matching the
// PICPAR_WATCHDOG / PICPAR_PROCS pattern.
func EnvDir(def string) string {
	v, ok := os.LookupEnv("PICPAR_CKPT_DIR")
	if !ok || v == "" {
		return def
	}
	if info, err := os.Stat(v); err == nil && !info.IsDir() {
		warnf("picpar: malformed PICPAR_CKPT_DIR=%q (exists but is not a directory); using default %q",
			v, def)
		return def
	}
	return v
}
