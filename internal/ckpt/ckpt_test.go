package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"picpar/internal/machine"
	"picpar/internal/particle"
)

// sampleShard builds a representative shard with every section populated:
// particles, all ten field arrays, bounds, policy/ledger state, stats with
// a non-default phase, and (for rank 0) a couple of iteration records.
func sampleShard(dims, rank int) *Shard {
	n := 5
	var s *particle.Store
	if dims == 3 {
		s = particle.NewStore3(n, -1.5, 1)
	} else {
		s = particle.NewStore(n, -1.5, 1)
	}
	for i := 0; i < n; i++ {
		f := float64(i)
		s.X = append(s.X, 0.25+f)
		s.Y = append(s.Y, 0.5+f)
		if dims == 3 {
			s.Z = append(s.Z, 0.75+f)
		}
		s.Px = append(s.Px, 0.01*f)
		s.Py = append(s.Py, -0.02*f)
		s.Pz = append(s.Pz, 0.03*f)
		s.ID = append(s.ID, f)
		s.Key = append(s.Key, 2*f)
	}
	sh := &Shard{
		Epoch:        10,
		Rank:         rank,
		Size:         4,
		Dims:         dims,
		GridNx:       32,
		GridNy:       16,
		Block:        [6]int{8 * rank, 8*rank + 8, 0, 16, 0, 0},
		NumParticles: 2048,
		Seed:         7,
		Iterations:   20,
		PolicyName:   "dynamic",
		ClockNow:     1.25,
		RunStart:     0.5,
		InitTime:     0.5,
		Particles:    s,
		Bounds:       []float64{100, 200, 300},
		UpperKey:     511,
		PolicyState:  []float64{3, 0.75, 1, 0.05},
		LedgerCost:   []float64{0.1, 0.2},
		LedgerCount:  []float64{8, 9},
	}
	if dims == 3 {
		sh.GridNz = 16
	}
	for i := range sh.Fields {
		sh.Fields[i] = []float64{float64(i), -float64(i), 0.5}
	}
	sh.Stats.SetPhase(machine.PhaseRedistribute)
	sh.Stats.Phases[0].ComputeTime = 0.125
	sh.Stats.Phases[0].CommTime = 0.0625
	sh.Stats.Phases[0].BytesSent = 4096
	sh.Stats.Phases[0].MsgsRecv = 17
	if rank == 0 {
		sh.Records = []Record{
			{Iter: 0, Time: 0.1, Compute: 0.05, ScatterBytesSent: 64,
				ScatterMsgsSent: 2, BusyImbalance: 1.1},
			{Iter: 1, Time: 0.2, Compute: 0.04, Redistributed: true,
				RedistTime: 0.03, RedistStrategy: "cost-weighted",
				FieldEnergy: 2.5, KineticEnergy: 3.5},
		}
	}
	return sh
}

func TestShardRoundTrip(t *testing.T) {
	for _, dims := range []int{2, 3} {
		sh := sampleShard(dims, 0)
		img := EncodeShard(nil, sh)
		if bound := encodedBound(sh); len(img) > bound {
			t.Errorf("dims %d: image of %d bytes exceeds encodedBound %d", dims, len(img), bound)
		}
		got, err := DecodeShard(img)
		if err != nil {
			t.Fatalf("dims %d: decode: %v", dims, err)
		}
		if !reflect.DeepEqual(got, sh) {
			t.Errorf("dims %d: round trip mismatch:\n got %+v\nwant %+v", dims, got, sh)
		}
		// Canonical form: the decoded shard re-encodes to the same bytes.
		if again := EncodeShard(nil, got); !bytes.Equal(again, img) {
			t.Errorf("dims %d: re-encode differs from original image", dims)
		}
	}
}

// corruptImages are malformed variants of a valid image (mutate gets a
// private copy) that every reader of shard files must refuse with a
// *CodecError.
var corruptImages = []struct {
	name   string
	mutate func([]byte) []byte
}{
	{"empty", func(b []byte) []byte { return nil }},
	{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
	{"bad version", func(b []byte) []byte { b[8] = 99; return b }},
	{"retired v1 image", func(b []byte) []byte { b[8] = 1; return b }},
	{"retired v2 image", func(b []byte) []byte { b[8] = 2; return b }},
	{"flipped payload bit", func(b []byte) []byte { b[headerSize+3] ^= 0x10; return b }},
	{"flipped last payload byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }},
	{"flipped crc", func(b []byte) []byte { b[13] ^= 1; return b }},
	{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
	{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }},
	{"header only", func(b []byte) []byte { return b[:headerSize] }},
	{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
	{"payload shorter than identity", func(b []byte) []byte {
		// An intact header and CRC over a 10-byte payload: only the
		// payload decode can refuse it.
		payload := b[headerSize : headerSize+10]
		binary.LittleEndian.PutUint32(b[12:], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint64(b[16:], uint64(len(payload)))
		return b[:headerSize+len(payload)]
	}},
}

func TestDecodeRejectsCorruptImages(t *testing.T) {
	img := EncodeShard(nil, sampleShard(2, 1))
	for _, tc := range corruptImages {
		b := tc.mutate(append([]byte(nil), img...))
		sh, err := DecodeShard(b)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt image (shard %+v)", tc.name, sh)
			continue
		}
		ce, ok := err.(*CodecError)
		if !ok {
			t.Errorf("%s: error is %T (%v), want *CodecError", tc.name, err, err)
		} else if ce.Msg == "" {
			t.Errorf("%s: codec error with empty diagnostic", tc.name)
		}
	}
}

func TestDecodeRejectsHugeDeclaredLengths(t *testing.T) {
	// A corrupt store count must be caught by length validation, not by an
	// attempted multi-gigabyte allocation. Build a valid image, then grow
	// the declared particle count far beyond the remaining payload.
	sh := sampleShard(2, 1)
	payload := appendPayload(nil, sh)
	// The store count sits right after the fixed prelude; rather than
	// hunting the offset, corrupt every u64 in turn and require that no
	// mutation ever panics (takeLen/takeInt must absorb them all).
	for off := 0; off+8 <= len(payload); off += 8 {
		b := append([]byte(nil), payload...)
		for i := 0; i < 8; i++ {
			b[off+i] = 0xff
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("offset %d: decodePayload panicked: %v", off, r)
				}
			}()
			_, _ = decodePayload(b)
		}()
	}
}

func TestWriteReadShardAtomic(t *testing.T) {
	dir := t.TempDir()
	sh := sampleShard(2, 2)
	if err := WriteShard(dir, sh); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShard(ShardPath(dir, sh.Epoch, sh.Rank))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sh) {
		t.Error("read shard differs from written shard")
	}
	// Atomic write must not leave temp files behind.
	entries, err := os.ReadDir(EpochDir(dir, sh.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestWriteFileAtomicFailureLeavesNoTemp: a write that fails at the rename
// (the target is a non-empty directory) returns an error and removes its
// temp file.
func TestWriteFileAtomicFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "busy")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "busy" {
			t.Errorf("failed write left %s behind", e.Name())
		}
	}
}

// writeEpoch writes a complete size-ranked epoch.
func writeEpoch(t *testing.T, dir string, epoch, size int) {
	t.Helper()
	for r := 0; r < size; r++ {
		sh := sampleShard(2, r)
		sh.Epoch = epoch
		sh.Size = size
		if err := WriteShard(dir, sh); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLatestCompleteFallsBack(t *testing.T) {
	const size = 3
	corruptions := []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"missing shard", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated shard", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped shard", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if got := LatestComplete(dir, size); got != -1 {
				t.Fatalf("empty dir: LatestComplete = %d, want -1", got)
			}
			writeEpoch(t, dir, 5, size)
			writeEpoch(t, dir, 10, size)
			if got := LatestComplete(dir, size); got != 10 {
				t.Fatalf("LatestComplete = %d, want 10", got)
			}
			tc.damage(t, ShardPath(dir, 10, 1))
			if got := LatestComplete(dir, size); got != 5 {
				t.Errorf("after damaging epoch 10: LatestComplete = %d, want 5", got)
			}
		})
	}
}

func TestPruneRetention(t *testing.T) {
	const size = 2
	dir := t.TempDir()
	for _, e := range []int{2, 4, 6, 8} {
		writeEpoch(t, dir, e, size)
	}
	// The partial epoch just written, still assembling, survives pruning.
	sh := sampleShard(2, 0)
	sh.Epoch = 10
	sh.Size = size
	if err := WriteShard(dir, sh); err != nil {
		t.Fatal(err)
	}
	if err := Prune(dir, 10, size, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := Epochs(dir), []int{6, 8, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("after prune: epochs %v, want %v", got, want)
	}
	if got := LatestComplete(dir, size); got != 8 {
		t.Errorf("after prune: LatestComplete = %d, want 8", got)
	}
}

// TestPruneKeepsTheWrittenEpoch: a second run into a directory that holds
// an older run's later epochs prunes relative to what it writes. Its own
// epochs survive while its ranks are still writing them, every other
// rank's shard lands, and the older run's epochs go, so recovery can no
// longer agree on them. Pruning by the directory's newest complete epochs
// instead removes each of the new run's epochs as soon as rank 0 writes it.
func TestPruneKeepsTheWrittenEpoch(t *testing.T) {
	const size, keep = 4, 2
	dir := t.TempDir()
	for e := 5; e <= 30; e += 5 { // the first run: 30 iterations
		writeEpoch(t, dir, e, size)
		if err := Prune(dir, e, size, keep); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := Epochs(dir), []int{25, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the first run: epochs %v, want %v", got, want)
	}
	for _, e := range []int{5, 10} { // the second run: 12 iterations
		for r := 0; r < size; r++ {
			sh := sampleShard(2, r)
			sh.Epoch, sh.Size = e, size
			if err := WriteShard(dir, sh); err != nil {
				t.Fatalf("epoch %d rank %d: %v", e, r, err)
			}
			if r == 0 { // rank 0 prunes before the others have written
				if err := Prune(dir, e, size, keep); err != nil {
					t.Fatalf("prune after epoch %d: %v", e, err)
				}
			}
		}
	}
	if got, want := Epochs(dir), []int{5, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("after the second run: epochs %v, want %v", got, want)
	}
	if got := LatestComplete(dir, size); got != 10 {
		t.Errorf("after the second run: LatestComplete = %d, want 10", got)
	}
}

func TestEnvDir(t *testing.T) {
	t.Setenv("PICPAR_CKPT_DIR", "")
	if got := EnvDir("fallback"); got != "fallback" {
		t.Errorf("empty env: %q, want fallback", got)
	}
	dir := t.TempDir()
	t.Setenv("PICPAR_CKPT_DIR", dir)
	if got := EnvDir("fallback"); got != dir {
		t.Errorf("set env: %q, want %q", got, dir)
	}
	// A value naming an existing non-directory is malformed: warn and fall
	// back rather than failing checkpoint writes forever after.
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PICPAR_CKPT_DIR", file)
	if got := EnvDir("fallback"); got != "fallback" {
		t.Errorf("malformed env: %q, want fallback", got)
	}
}
