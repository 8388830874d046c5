package comm

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"picpar/internal/machine"
	"picpar/internal/raceflag"
	"picpar/internal/wire"
)

// encodeFrame is the test-side convenience over appendFrame.
func encodeFrame(t *testing.T, f *netFrame) []byte {
	t.Helper()
	b, err := appendFrame(nil, f)
	if err != nil {
		t.Fatalf("encode %+v: %v", f, err)
	}
	return b
}

// roundTrip encodes f, decodes the bytes, and returns the decoded frame.
func roundTrip(t *testing.T, f *netFrame) netFrame {
	t.Helper()
	got, err := decodeFrame(encodeFrame(t, f))
	if err != nil {
		t.Fatalf("decode of freshly encoded %+v: %v", f, err)
	}
	return got
}

// TestCodecRoundTripBodies: every body type crossing Send — and every
// decorator envelope nesting the chaos stack produces — survives the wire
// bit-exactly.
func TestCodecRoundTripBodies(t *testing.T) {
	var st machine.Stats
	st.SetPhase(machine.PhasePush)
	st.RecordCompute(1.25)
	st.SetPhase(machine.PhaseScatter)
	st.RecordSend(640, 0.001)
	bodies := []any{
		nil,
		float64(3.14159),
		math.Inf(-1),
		int(-42),
		uint64(1 << 63),
		true,
		false,
		"payload-from-0",
		"",
		[]float64{},
		[]float64{1.5, -2.5, 0, math.MaxFloat64},
		[]int{},
		[]int{-1, 0, 7 << 40},
		relEnvelope{seq: 9, body: []float64{1, 2}},
		faultEnvelope{seq: 3, drops: 2, dup: true, delay: 1e-3,
			body: relEnvelope{seq: 9, body: []int{5}}},
		st.Snapshot(),
	}
	for _, body := range bodies {
		f := &netFrame{kind: frameData, tag: TagUser + 3, nbytes: 640, sentAt: 0.125, body: body}
		got := roundTrip(t, f)
		if got.tag != f.tag || got.nbytes != f.nbytes || got.sentAt != f.sentAt {
			t.Errorf("%T: header fields corrupted: %+v", body, got)
		}
		if !reflect.DeepEqual(got.body, f.body) {
			t.Errorf("body %#v round-tripped as %#v", f.body, got.body)
		}
	}
}

// TestCodecRoundTripControlFrames: the lifecycle frames carry their
// handshake fields intact.
func TestCodecRoundTripControlFrames(t *testing.T) {
	frames := []*netFrame{
		{kind: frameHeartbeat},
		{kind: frameGoodbye},
		{kind: framePeerOK},
		{kind: frameHello, worldID: 0xDEADBEEF, rank: 3, size: 8, addr: "127.0.0.1:4242"},
		{kind: frameWelcome, worldID: 1, size: 2, addrs: []string{"a:1", "b:2"}},
		{kind: framePeerHello, worldID: 7, rank: 5, peer: 2},
		{kind: frameReject, reason: "world size mismatch"},
		{kind: frameOOB, body: float64(2.5)},
	}
	for _, f := range frames {
		got := roundTrip(t, f)
		// Welcome does not carry size on the wire (the table length is the
		// size); normalise before comparing.
		if f.kind == frameWelcome {
			f = &netFrame{kind: f.kind, worldID: f.worldID, addrs: f.addrs}
		}
		if !reflect.DeepEqual(got, *f) {
			t.Errorf("frame kind 0x%02x round-tripped as %+v, want %+v", f.kind, got, f)
		}
	}
}

// TestCodecRejectsMalformed: hostile or corrupted inputs fail with a typed
// *CodecError carrying a reason — never a panic, never a silent success.
func TestCodecRejectsMalformed(t *testing.T) {
	valid := encodeFrame(t, &netFrame{kind: frameData, tag: 1, body: []float64{1, 2}})
	cases := map[string][]byte{
		"empty":              {},
		"one byte":           {NetCodecVersion},
		"version mismatch":   {NetCodecVersion + 1, frameHeartbeat},
		"unknown frame kind": {NetCodecVersion, 0x7f},
		"trailing bytes":     append(append([]byte{}, valid...), 0),
		"truncated header":   valid[:5],
		"truncated payload":  valid[:len(valid)-3],
		"unknown body kind": append(encodeFrame(t,
			&netFrame{kind: frameData})[:26], 0x7f),
		"hostile float64s length": append(encodeFrame(t,
			&netFrame{kind: frameData})[:26],
			kFloat64s, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"bad bool byte": append(encodeFrame(t,
			&netFrame{kind: frameData})[:26], kBool, 2),
	}
	for name, in := range cases {
		f, err := decodeFrame(in)
		if err == nil {
			t.Errorf("%s: decoded to %+v, want *CodecError", name, f)
			continue
		}
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %T (%v), want *CodecError", name, err, err)
			continue
		}
		if ce.Msg == "" || ce.Op != "decode" {
			t.Errorf("%s: undiagnostic codec error %+v", name, ce)
		}
	}
}

// TestCodecEnvelopeDepthBounded: nesting beyond the legitimate decorator
// stack is refused on both sides — encode (a wrapping bug) and decode (a
// hostile byte stream inducing recursion).
func TestCodecEnvelopeDepthBounded(t *testing.T) {
	body := any("x")
	for i := 0; i < maxEnvelopeDepth+2; i++ {
		body = relEnvelope{seq: uint64(i), body: body}
	}
	if _, err := appendFrame(nil, &netFrame{kind: frameData, body: body}); err == nil {
		t.Error("encode accepted envelope nesting beyond the cap")
	}
	// Hand-build the hostile equivalent: header + (kRelEnv, seq) repeated.
	w := wire.Writer{B: encodeFrame(t, &netFrame{kind: frameData})[:26]}
	for i := 0; i < maxEnvelopeDepth+2; i++ {
		w.Byte(kRelEnv)
		w.U64(0)
	}
	w.Byte(kNil)
	if _, err := decodeFrame(w.B); err == nil {
		t.Error("decode accepted envelope nesting beyond the cap")
	} else if !strings.Contains(err.Error(), "nesting") {
		t.Errorf("depth rejection reason missing: %v", err)
	}
}

// TestCodecUnsupportedBodyType: an unencodable body is an encode-side
// *CodecError (the transport raises it as a TransportError — programming
// mistake, not network condition).
func TestCodecUnsupportedBodyType(t *testing.T) {
	type custom struct{ X int }
	_, err := appendFrame(nil, &netFrame{kind: frameData, body: custom{1}})
	var ce *CodecError
	if !errors.As(err, &ce) || ce.Op != "encode" {
		t.Fatalf("error %v, want an encode *CodecError", err)
	}
	if !strings.Contains(ce.Msg, "custom") {
		t.Errorf("encode error does not name the offending type: %v", ce)
	}
}

// TestDecodeFrameAllocs pins the decode path of a data frame at one
// allocation once the wire pool is warm: the []float64 payload is drawn
// from the pool and the frame is returned by value, so boxing the payload's
// slice header into the body is all that reaches the heap.
func TestDecodeFrameAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	payload := make([]float64, 3072)
	for i := range payload {
		payload[i] = float64(i)
	}
	raw := encodeFrame(t, &netFrame{kind: frameData, tag: TagUser, nbytes: 8 * len(payload), body: payload})
	allocs := testing.AllocsPerRun(50, func() {
		f, err := decodeFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		wire.Put(f.body.([]float64))
	})
	if allocs > 1 {
		t.Errorf("warm data-frame decode: %v allocs/op, want <= 1 (the boxed slice header)", allocs)
	}
}
