package comm

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeFrame enforces the codec's safety contract on arbitrary byte
// streams: decodeFrame either returns a typed *CodecError or produces a
// frame that re-encodes canonically — decode(encode(decode(b))) is a fixed
// point, bit for bit (which also makes the property NaN-safe: float
// payloads are compared as encoded bits, never with ==). It must never
// panic and never silently truncate (trailing bytes are a decode error, so
// a successful decode consumed exactly the input).
//
// The committed seed corpus lives in testdata/fuzz/FuzzDecodeFrame; the
// f.Add seeds below cover every frame kind and body kind so coverage starts
// from the full grammar.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(fr *netFrame) {
		b, err := appendFrame(nil, fr)
		if err != nil {
			f.Fatalf("seed frame %+v: %v", fr, err)
		}
		f.Add(b)
	}
	seed(&netFrame{kind: frameHeartbeat})
	seed(&netFrame{kind: frameGoodbye})
	seed(&netFrame{kind: framePeerOK})
	seed(&netFrame{kind: frameHello, worldID: 7, rank: 1, size: 4, addr: "127.0.0.1:9"})
	seed(&netFrame{kind: frameWelcome, worldID: 7, addrs: []string{"a:1", "b:2"}})
	seed(&netFrame{kind: framePeerHello, worldID: 7, rank: 3, peer: 0})
	seed(&netFrame{kind: frameReject, reason: "duplicate identity"})
	seed(&netFrame{kind: frameData, tag: TagUser, nbytes: 16, sentAt: 0.25, body: nil})
	seed(&netFrame{kind: frameData, tag: -1, body: float64(1.5)})
	seed(&netFrame{kind: frameData, body: int(-3)})
	seed(&netFrame{kind: frameData, body: uint64(9)})
	seed(&netFrame{kind: frameData, body: true})
	seed(&netFrame{kind: frameData, body: "hello"})
	seed(&netFrame{kind: frameData, body: &[]float64{1, 2, 3}})
	seed(&netFrame{kind: frameData, body: &[]int{4, 5}})
	f.Add(retiredEnvelope(0x08))
	f.Add(retiredEnvelope(0x09))
	f.Add([]byte{})
	f.Add([]byte{NetCodecVersion, 0x7f})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, in []byte) {
		fr, err := decodeFrame(in) // must not panic, whatever in is
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
		// A decoded frame must re-encode, and its encoding must be a fixed
		// point: decode → encode → decode → encode yields identical bytes.
		enc1, err := appendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", fr, err)
		}
		fr2, err := decodeFrame(enc1)
		if err != nil {
			t.Fatalf("canonical encoding of %+v does not decode: %v", fr, err)
		}
		enc2, err := appendFrame(nil, &fr2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encoding is not a fixed point:\n first %x\nsecond %x", enc1, enc2)
		}
	})
}
