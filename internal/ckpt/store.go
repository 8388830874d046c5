// On-disk layout and atomic I/O for checkpoint epochs.
//
// A checkpoint directory holds one subdirectory per epoch,
// `epoch-%08d/`, containing one `rank-<r>.ckpt` file per rank. An epoch
// is *complete* when all `size` shard files exist and pass the header +
// CRC check; recovery only ever restores from a complete epoch, so a
// crash between two ranks' writes simply leaves a partial epoch that the
// scan skips. Each shard is written atomically by WriteFileAtomic: temp
// file in the epoch directory, write, fsync, rename, fsync of the
// directory.

package ckpt

import (
	"fmt"
	"hash/crc32"
	"io"
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

// WriteShard atomically writes sh into dir's epoch layout (WriteFileAtomic),
// so readers never observe a torn shard.
func WriteShard(dir string, sh *Shard) error {
	if err := os.MkdirAll(EpochDir(dir, sh.Epoch), 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	buf := EncodeShard(wire.GetBytes(encodedBound(sh)), sh)
	err := WriteFileAtomic(ShardPath(dir, sh.Epoch, sh.Rank), buf)
	wire.PutBytes(buf)
	return err
}

// WriteFileAtomic lands b under path so that a reader, or a process
// restarted after a crash at any instant, sees either the old file or the
// complete new one: the bytes go to a temp file in path's directory, which
// is fsynced, closed and renamed over path, and the directory is fsynced
// last. Every failure removes the temp file. Checkpoint shards and the job
// daemon's manifests are both written this way.
func WriteFileAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
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

// scanChunk is the read size of ShardIdentity's one pass over a file.
const scanChunk = 64 << 10

// identityBytes is the length of the identity prefix (epoch, rank, size)
// that opens every payload.
const identityBytes = 3 * 8

// ShardIdentity returns the epoch, rank and world size a shard file was
// written as, after the checks DecodeShard makes before it decodes: the
// header, the declared against the real payload length, and the CRC of
// the whole payload, with the same *CodecError cases. It streams the file
// once through a pooled read buffer into the CRC, keeping only the header
// and the identity prefix, so the completeness scan reads every byte of a
// shard (one that merely *looks* intact is refused) without holding the
// file in memory. The bulk payload is never decoded.
func ShardIdentity(path string) (epoch, rank, size int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	buf := wire.GetBytes(scanChunk)[:scanChunk]
	defer wire.PutBytes(buf)
	var head [headerSize + identityBytes]byte
	var crc uint32
	n := 0 // bytes read so far
	for {
		k, rerr := f.Read(buf)
		chunk := buf[:k]
		if n < len(head) {
			copy(head[n:], chunk)
		}
		if n+k > headerSize {
			crc = crc32.Update(crc, crc32.IEEETable, chunk[max(headerSize-n, 0):])
		}
		n += k
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, 0, 0, fmt.Errorf("ckpt: %w", rerr)
		}
	}
	want, err := checkHeader(head[:], n)
	if err == nil {
		err = checkCRC(want, crc)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	r := wire.Reader{B: head[headerSize:min(n, len(head))]}
	epoch, rank, size = r.Nat("epoch"), r.Nat("rank"), r.Nat("size")
	return epoch, rank, size, readErr(&r)
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

// Prune enforces bounded retention relative to the epoch just written:
// every epoch newer than it is stale — another run's, or an attempt that
// was rolled back — and is removed; of the rest, the newest keep complete
// epochs are retained (along with the written epoch and any partial epoch
// between them, which may still be assembling), and everything older is
// removed. Best-effort — the first removal error is returned but the walk
// continues.
func Prune(dir string, epoch, size, keep int) error {
	if keep < 1 {
		keep = 1
	}
	epochs := Epochs(dir)
	var first error
	complete := 0
	for i := len(epochs) - 1; i >= 0; i-- {
		if epochs[i] > epoch || complete >= keep {
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
