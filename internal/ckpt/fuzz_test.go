package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeShard enforces the checkpoint codec's safety contract on
// arbitrary byte streams, mirroring the network codec's FuzzDecodeFrame:
// decodePayload either returns a typed *CodecError or produces a shard
// whose re-encoding is a canonical fixed point — decode(encode(decode(b)))
// is bit-identical (which also makes the property NaN-safe: floats are
// compared as encoded bits, never with ==). It must never panic and never
// silently truncate (trailing bytes are a decode error, so a successful
// decode consumed exactly the input).
//
// The harness drives decodePayload directly rather than DecodeShard: the
// CRC in the file header would reject nearly every mutated input before
// the payload parser ran, masking exactly the bugs the fuzzer hunts. The
// header/CRC path has its own deterministic tests.
//
// The committed seed corpus lives in testdata/fuzz/FuzzDecodeShard; the
// f.Add seeds below cover both dimensionalities, empty and populated
// sections, and a few structurally broken prefixes.
func FuzzDecodeShard(f *testing.F) {
	f.Add(appendPayload(nil, sampleShard(2, 0)))
	f.Add(appendPayload(nil, sampleShard(3, 0)))
	f.Add(appendPayload(nil, sampleShard(2, 3))) // no records
	empty := sampleShard(2, 1)
	empty.Particles.X = empty.Particles.X[:0]
	empty.Particles.Y = empty.Particles.Y[:0]
	empty.Particles.Px = empty.Particles.Px[:0]
	empty.Particles.Py = empty.Particles.Py[:0]
	empty.Particles.Pz = empty.Particles.Pz[:0]
	empty.Particles.ID = empty.Particles.ID[:0]
	empty.Particles.Key = empty.Particles.Key[:0]
	empty.Bounds = nil
	empty.PolicyState = nil
	empty.LedgerCost = nil
	empty.LedgerCount = nil
	f.Add(appendPayload(nil, empty))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(appendPayload(nil, sampleShard(2, 0))[:40])

	f.Fuzz(func(t *testing.T, in []byte) {
		sh, err := decodePayload(in) // must not panic, whatever in is
		if err != nil {
			var ce *CodecError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is %T (%v), want *CodecError", err, err)
			}
			if ce.Msg == "" {
				t.Fatalf("codec error with empty diagnostic: %+v", ce)
			}
			return
		}
		// A decoded shard must re-encode, and its encoding must be a fixed
		// point: decode → encode → decode → encode yields identical bytes.
		enc1 := appendPayload(nil, sh)
		sh2, err := decodePayload(enc1)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		enc2 := appendPayload(nil, sh2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encoding is not a fixed point:\n first %x\nsecond %x", enc1, enc2)
		}
		// The full-image wrapper must accept what it produces.
		if _, err := DecodeShard(EncodeShard(nil, sh)); err != nil {
			t.Fatalf("EncodeShard image of decoded shard rejected: %v", err)
		}
	})
}

// FuzzShardIdentity holds the streamed completeness probe to DecodeShard on
// arbitrary file contents: ShardIdentity never panics, refuses with the
// same *CodecError every image whose header or CRC DecodeShard refuses, and
// reads the identity DecodeShard decodes from every image it accepts. The
// probe decodes no further than the identity prefix, so an image with an
// intact header and CRC over a payload malformed past that prefix passes
// it; DecodeShard refuses it at restore time.
func FuzzShardIdentity(f *testing.F) {
	for _, dims := range []int{2, 3} {
		img := EncodeShard(nil, sampleShard(dims, 0))
		f.Add(img)
		for _, tc := range corruptImages {
			f.Add(tc.mutate(append([]byte(nil), img...)))
		}
	}
	f.Add([]byte(shardMagic))

	f.Fuzz(func(t *testing.T, in []byte) {
		path := filepath.Join(t.TempDir(), "rank-0.ckpt")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		e, r, s, err := ShardIdentity(path) // must not panic, whatever in is
		var ce *CodecError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("probe error is %T (%v), want *CodecError", err, err)
		}
		sh, derr := DecodeShard(in)
		if derr == nil {
			if err != nil || e != sh.Epoch || r != sh.Rank || s != sh.Size {
				t.Fatalf("probe gave %d/%d/%d, %v for an image DecodeShard accepts as %d/%d/%d",
					e, r, s, err, sh.Epoch, sh.Rank, sh.Size)
			}
			return
		}
		if _, herr := checkImage(in); herr != nil && (err == nil || err.Error() != herr.Error()) {
			t.Fatalf("probe gave %d/%d/%d, %v for an image DecodeShard refuses with %v", e, r, s, err, herr)
		}
	})
}
