package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"picpar/internal/machine"
)

// TestShardFormatPinned pins the checkpoint format itself. The round-trip
// and fuzz tests cannot see a layout change made symmetrically in the
// encoder and the decoder; this test can: it compares the SHA-256 digests
// of the 2-D and 3-D sample payloads and of one complete file image (CRC
// and header included) against constants recorded from the reference
// encoder. A deliberate format change must bump Version and re-record them.
func TestShardFormatPinned(t *testing.T) {
	cases := []struct {
		name string
		enc  []byte
		want string
	}{
		{"2-D payload", appendPayload(nil, pinShard(2)), "af71aab7e99f38f794062098c4fec7adedbe7206a937a7f432b4ecf5b039ccc9"},
		{"3-D payload", appendPayload(nil, pinShard(3)), "082a60bc5139c4ce58ce956c635e20785aeaca6bf44dac8fc683cca89045b6b3"},
		{"file image", EncodeShard(nil, pinShard(3)), "69686195a4066ae7a65f143308d3242d4f0bba61e3022508d6840c44aa590f4c"},
	}
	for _, tc := range cases {
		sum := sha256.Sum256(tc.enc)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s moved: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// pinShard is sampleShard with every scalar, stats and record field set to
// a value no neighbouring field shares, so swapping two fields in both the
// encoder and the decoder moves the digest.
func pinShard(dims int) *Shard {
	sh := sampleShard(dims, 0)
	sh.Epoch, sh.Rank, sh.Size = 11, 1, 5
	sh.GridNx, sh.GridNy, sh.GridNz = 32, 16, 8
	sh.RunStart, sh.InitTime = 0.5, 0.375
	for p := range sh.Stats.Phases {
		f := float64(p)
		sh.Stats.Phases[p] = machine.PhaseStats{ComputeTime: f + 0.125, CommTime: f + 0.25,
			BytesSent: int64(100*p + 1), BytesRecv: int64(100*p + 2),
			MsgsSent: int64(100*p + 3), MsgsRecv: int64(100*p + 4)}
	}
	sh.Records = append(sh.Records, Record{Iter: 2, Time: 0.3, Compute: 0.06,
		ScatterBytesSent: 64, ScatterBytesRecv: 65, ScatterMsgsSent: 3, ScatterMsgsRecv: 4,
		RedistTime: 0.07, RedistStrategy: "equal-count",
		BusyImbalance: 1.2, FieldEnergy: 2.75, KineticEnergy: 3.25})
	return sh
}
