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
		{"2-D payload", appendPayload(nil, pinShard(2)), "fc4df737f94c3ad0e3a9247e633874b57f42a8a13c2cc31c826e612a76fba19b"},
		{"3-D payload", appendPayload(nil, pinShard(3)), "e226e14c20d3c619755a88f0d39c5ec495356bab09b1130462a2ff30fbce0e8d"},
		{"file image", EncodeShard(nil, pinShard(3)), "5154e2baf0ad4212c27ffabe724dccd7164d1950e30b488025baf95d5eae47be"},
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
	sh.Block = [6]int{16, 31, 4, 12, 1, 7}
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
