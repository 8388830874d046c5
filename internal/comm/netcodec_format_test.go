package comm

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/bits"
	"testing"

	"picpar/internal/machine"
)

// TestCodecFormatPinned pins the wire format itself. The round-trip and
// fuzz tests cannot see a layout change made symmetrically in the encoder
// and the decoder; this test can: it hashes one frame of every kind and
// one data frame per body kind and compares the SHA-256 digests against
// constants recorded from the reference encoder. A deliberate format
// change must bump NetCodecVersion and re-record both digests.
func TestCodecFormatPinned(t *testing.T) {
	// Every field distinct from its neighbours, so a swap of two fields in
	// both the encoder and the decoder moves the digest.
	var st machine.Stats
	st.SetPhase(machine.PhaseRedistribute)
	for p := range st.Phases {
		f := float64(p)
		st.Phases[p] = machine.PhaseStats{ComputeTime: f + 0.125, CommTime: f + 0.25,
			BytesSent: int64(100*p + 1), BytesRecv: int64(100*p + 2),
			MsgsSent: int64(100*p + 3), MsgsRecv: int64(100*p + 4)}
	}

	frames := []*netFrame{
		{kind: frameHeartbeat},
		{kind: frameGoodbye},
		{kind: framePeerOK},
		{kind: frameHello, worldID: 0xDEADBEEF, rank: 3, size: 8, addr: "127.0.0.1:4242", topo: 0x0123456789abcdef},
		{kind: frameWelcome, worldID: 1, addrs: []string{"a:1", "b:22", ""}},
		{kind: framePeerHello, worldID: 7, rank: 5, peer: 2},
		{kind: frameReject, reason: "world size mismatch"},
		{kind: frameData, tag: TagUser + 3, nbytes: 640, sentAt: 0.125, body: &[]float64{1, 2}},
		{kind: frameOOB, body: float64(2.5)},
		{kind: frameRelay, rank: 6, peer: 1, tag: -4, nbytes: 24, sentAt: 1.5, body: &[]int{-1, 9}},
		{kind: frameOOBFrom, rank: 2, body: "origin"},
	}
	bodies := []any{
		nil,
		float64(3.14159),
		math.Inf(-1),
		int(-42),
		uint64(1 << 63),
		true,
		false,
		"payload-from-0",
		&[]float64{1.5, -2.5, 0, math.MaxFloat64},
		&[]int{-1, 0, wideInt},
		st.Snapshot(),
	}
	digest := func(fs []*netFrame) string {
		h := sha256.New()
		for _, f := range fs {
			h.Write(encodeFrame(t, f))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	var data []*netFrame
	for _, body := range bodies {
		data = append(data, &netFrame{kind: frameData, tag: TagUser + 1, nbytes: 8, sentAt: 0.25, body: body})
	}
	const wantFrames = "c63b9ff2559cb12da970b5dec54c6c76d231fd44589633de2c91d45bc9ae5ee5"
	// The []int body carries wideInt, which depends on the word size; with
	// the same value, a 32-bit encoder writes the 64-bit one's bytes.
	wantBodies := "7bc054a8f494d63666d446be117cf9ae244e3997a8caaa861545a54b018eeb46"
	if bits.UintSize == 32 {
		wantBodies = "103ada640d484a8b0a3d5244d63c587efca2b14c915180cb2ac4d4ec2d8a68ef"
	}
	if got := digest(frames); got != wantFrames {
		t.Errorf("frame encodings moved: sha256 %s, want %s", got, wantFrames)
	}
	if got := digest(data); got != wantBodies {
		t.Errorf("body encodings moved: sha256 %s, want %s", got, wantBodies)
	}
}
