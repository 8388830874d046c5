package comm

import (
	"errors"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"picpar/internal/machine"
	"picpar/internal/raceflag"
	"picpar/internal/wire"
)

// wideInt is an []int element with bits set above bit 31 (7<<40) where an
// int has them, and 7<<20 where an int is 32 bits: an element crosses the
// wire as an int64 either way, so the one literal serves both word sizes.
const wideInt = 7 << (20 * (bits.UintSize / 32))

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

// TestCodecRoundTripBodies: every body type crossing Send survives the
// wire bit-exactly.
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
		&[]float64{},
		&[]float64{1.5, -2.5, 0, math.MaxFloat64},
		&[]int{},
		&[]int{-1, 0, wideInt},
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
	valid := encodeFrame(t, &netFrame{kind: frameData, tag: 1, body: &[]float64{1, 2}})
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
		"retired body kind 0x08 (reliability envelope)": retiredEnvelope(0x08),
		"retired body kind 0x09 (fault envelope)":       retiredEnvelope(0x09),
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
		if strings.Contains(name, "body kind") && !strings.Contains(ce.Msg, "unknown body kind") {
			t.Errorf("%s: reason %q, want an unknown body kind", name, ce.Msg)
		}
	}
}

// retiredEnvelope is a data frame whose body is one of the envelope kinds
// codec version 2 carried — 0x08 (seq + nested body) or 0x09 (seq, drops,
// dup, delay + nested body) — laid out as version 2 wrote them around a nil
// payload. The current codec has no such kinds and must refuse them.
func retiredEnvelope(kind byte) []byte {
	w := wire.Writer{B: []byte{NetCodecVersion, frameData}}
	w.Int(int(TagUser)) // tag
	w.Int(8)            // nbytes
	w.F64(0.25)         // sentAt
	w.Byte(kind)
	w.U64(9) // seq
	if kind == 0x09 {
		w.Int(2)     // drops
		w.Bool(true) // dup
		w.F64(1e-3)  // delay
	}
	w.Byte(kNil)
	return w.B
}

// TestCodecEnvelopeDepthBounded: a hostile byte stream of nested envelope
// headers — kind 0x08 and its sequence number, repeated far deeper than any
// decorator stack — is refused at the first header with a typed
// *CodecError, so decode never recurses on attacker-controlled depth.
func TestCodecEnvelopeDepthBounded(t *testing.T) {
	for _, kind := range []byte{0x08, 0x09} {
		w := wire.Writer{B: encodeFrame(t, &netFrame{kind: frameData})[:26]}
		for i := 0; i < 1<<12; i++ {
			w.Byte(kind)
			w.U64(uint64(i))
		}
		w.Byte(kNil)
		f, err := decodeFrame(w.B)
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Errorf("kind 0x%02x nested: decoded to %+v (err %v), want *CodecError", kind, f, err)
			continue
		}
		if ce.Op != "decode" || !strings.Contains(ce.Msg, "unknown body kind") {
			t.Errorf("kind 0x%02x nested: %+v, want a decode error naming an unknown body kind", kind, ce)
		}
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

// TestDecodeFrameAllocs pins the decode path of a data frame at zero
// allocations once the wire pool is warm: the []float64 payload is drawn
// from the pool, boxed in a spare header from the same pool, and the frame
// is returned by value. Boxing a bare slice as the body would cost one.
func TestDecodeFrameAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	payload := make([]float64, 3072)
	for i := range payload {
		payload[i] = float64(i)
	}
	raw := encodeFrame(t, &netFrame{kind: frameData, tag: TagUser, nbytes: 8 * len(payload), body: &payload})
	allocs := testing.AllocsPerRun(50, func() {
		f, err := decodeFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		wire.Put(wire.Unbox(f.body.(*[]float64)))
	})
	if allocs > 0 {
		t.Errorf("warm data-frame decode: %v allocs/op, want 0", allocs)
	}
}
