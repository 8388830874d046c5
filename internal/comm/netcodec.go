// The versioned binary codec of the TCP transport backend (net.go): it
// turns the `any` message bodies the algorithms exchange into
// length-prefixed frames on a socket, and back.
//
// Design rules, in priority order:
//
//  1. Safety: DecodeFrame consumes arbitrary attacker-controlled bytes. It
//     must either reproduce a value EncodeFrame could have produced or
//     return a typed *CodecError — never panic, never silently truncate,
//     never allocate more than the input length justifies. A fuzz harness
//     (netcodec_fuzz_test.go) enforces this.
//  2. Fidelity: the simulated cost model rides on the frame (modelled byte
//     size, sender's post-send clock), so a run over real sockets charges
//     exactly what the goroutine backend charges and the goldens stay
//     byte-identical across processes.
//  3. Allocation: encode scratch comes from the internal/wire byte pool and
//     decoded slice payloads from its float and int pools, boxed by
//     wire.Box; the transport recycles an encoded body and receivers
//     wire.Put what they unpack, so the exchange hot paths recycle their
//     buffers over a real network too. A warm data-frame decode allocates
//     nothing.
//
// The format is fixed-width little-endian, written by wire.Writer and read
// by wire.Reader, the length-checked reader the checkpoint format shares.
// Every frame starts with a version byte so an old binary talking to a new
// one fails loudly with a version diagnostic instead of misparsing.

package comm

import (
	"fmt"

	"picpar/internal/machine"
	"picpar/internal/wire"
)

// NetCodecVersion is the wire-format version. Bump it on any change to the
// frame or body layout; peers with mismatched versions refuse to pair
// during the handshake and a mismatched frame fails decode with a typed
// error.
const NetCodecVersion = 3

// Frame kinds. Control frames (hello, welcome, reject, heartbeat, goodbye)
// carry the connection lifecycle; data and oob frames carry application
// traffic.
const (
	frameData      = 0x01 // modelled point-to-point message
	frameOOB       = 0x02 // out-of-band Expose publication (uncharged)
	frameHeartbeat = 0x03 // liveness beacon, no payload
	frameGoodbye   = 0x04 // clean teardown announcement, no payload
	frameHello     = 0x05 // rendezvous registration: rank, size, listen addr
	frameWelcome   = 0x06 // rendezvous reply: world id + address table
	frameReject    = 0x07 // handshake refusal with reason
	framePeerHello = 0x08 // mesh connection handshake: world id, from, to
	framePeerOK    = 0x09 // mesh handshake accept
	frameRelay     = 0x0a // hierarchical gateway forwarding: world src/dst + data payload
	frameOOBFrom   = 0x0b // origin-attributed Expose publication (sparse/hier worlds)
)

// Body kind tags.
const (
	kNil      = 0x00
	kFloat64  = 0x01
	kInt      = 0x02
	kUint64   = 0x03
	kBool     = 0x04
	kString   = 0x05
	kFloat64s = 0x06
	kInts     = 0x07
	kStats    = 0x0a // machine.Stats ledger (end-of-run gathering)
)

// maxFrameBytes bounds a single frame (1 GiB). The length prefix of an
// incoming frame is rejected above this before any allocation happens.
const maxFrameBytes = 1 << 30

// CodecError is the typed decode (or encode) failure of the network codec.
// It is terminal and never retried: a frame that does not parse means the
// peers disagree about the protocol, not that the network hiccuped.
type CodecError struct {
	Op  string // "encode" or "decode"
	Msg string // what was malformed
}

// Error implements error.
func (e *CodecError) Error() string { return fmt.Sprintf("comm: codec %s: %s", e.Op, e.Msg) }

func decErr(format string, args ...any) error {
	return &CodecError{Op: "decode", Msg: fmt.Sprintf(format, args...)}
}

// netFrame is one decoded frame. Which fields are meaningful depends on
// Kind; the zero value of the rest is ignored by the encoder.
type netFrame struct {
	kind byte

	// frameData / frameOOB
	tag    Tag
	nbytes int     // modelled size (the cost-model bytes, not the encoded length)
	sentAt float64 // sender's simulated clock after the send completed
	body   any

	// frameHello / frameWelcome / framePeerHello / frameReject
	worldID uint64
	rank    int    // hello: sender's rank; peer hello: dialing rank; relay/oobFrom: world source rank
	peer    int    // peer hello: the rank being dialed; relay: world destination rank
	size    int    // hello: sender's idea of the world size
	addr    string // hello: the sender's mesh listen address
	addrs   []string
	reason  string // reject: why
	topo    uint64 // hello: the rank's Topology.Digest
}

// appendFrame encodes f onto buf (which should come from wire.GetBytes) and
// returns the extended buffer. The caller prepends the u32 length prefix
// when writing to a socket.
func appendFrame(buf []byte, f *netFrame) ([]byte, error) {
	w := wire.Writer{B: append(buf, NetCodecVersion, f.kind)}
	var err error
	switch f.kind {
	case frameHeartbeat, frameGoodbye, framePeerOK:
	case frameRelay:
		w.Int(f.rank)
		w.Int(f.peer)
		fallthrough
	case frameData, frameOOB:
		w.Int(int(f.tag))
		w.Int(f.nbytes)
		w.F64(f.sentAt)
		err = appendBody(&w, f.body)
	case frameOOBFrom:
		w.Int(f.rank)
		err = appendBody(&w, f.body)
	case frameHello:
		w.U64(f.worldID)
		w.Int(f.rank)
		w.Int(f.size)
		w.String(f.addr)
		w.U64(f.topo)
	case frameWelcome:
		w.U64(f.worldID)
		w.Int(len(f.addrs))
		for _, a := range f.addrs {
			w.String(a)
		}
	case framePeerHello:
		w.U64(f.worldID)
		w.Int(f.rank)
		w.Int(f.peer)
	case frameReject:
		w.String(f.reason)
	default:
		err = &CodecError{Op: "encode", Msg: fmt.Sprintf("unknown frame kind 0x%02x", f.kind)}
	}
	return w.B, err
}

// decodeFrame parses one frame payload (without the length prefix). Any
// malformed input yields a *CodecError; trailing garbage after a valid
// frame is malformed too (a frame is exactly one message).
func decodeFrame(b []byte) (netFrame, error) {
	r := wire.Reader{B: b}
	if v := r.Byte("version"); v != NetCodecVersion {
		r.Fail("version", "codec version %d, want %d", v, NetCodecVersion)
	}
	f := netFrame{kind: r.Byte("frame kind")}
	switch f.kind {
	case frameHeartbeat, frameGoodbye, framePeerOK:
	case frameRelay:
		f.rank, f.peer = r.Int("relay src"), r.Int("relay dst")
		fallthrough
	case frameData, frameOOB:
		f.tag, f.nbytes, f.sentAt = Tag(r.Int("tag")), r.Nat("nbytes"), r.F64("sentAt")
		f.body = decodeBody(&r)
	case frameOOBFrom:
		f.rank = r.Int("oob origin")
		f.body = decodeBody(&r)
	case frameHello:
		f.worldID, f.rank, f.size = r.U64("world id"), r.Int("rank"), r.Int("size")
		f.addr, f.topo = r.String("listen addr"), r.U64("topology digest")
	case frameWelcome:
		f.worldID = r.U64("world id")
		f.addrs = make([]string, r.Len("addr count", 8))
		for i := range f.addrs {
			f.addrs[i] = r.String("addr")
		}
	case framePeerHello:
		f.worldID, f.rank, f.peer = r.U64("world id"), r.Int("from rank"), r.Int("to rank")
	case frameReject:
		f.reason = r.String("reason")
	default:
		r.Fail("frame", "unknown frame kind 0x%02x", f.kind)
	}
	r.End("frame")
	if what, msg := r.Failure(); msg != "" {
		return netFrame{}, decErr("%s: %s", what, msg)
	}
	return f, nil
}

// bodyBytes is the encoded size of body's slice payload, so the encoder
// draws scratch of the right size class from the byte pool up front instead
// of growing it (and filing the grown buffer under a class the next small
// request never asks for).
func bodyBytes(body any) int {
	switch v := body.(type) {
	case *[]float64:
		return 8 * len(*v)
	case *[]int:
		return 8 * len(*v)
	}
	return 0
}

// appendBody encodes one message body. Unsupported types are an encode
// error (the transport turns it into a TransportError — it is a programming
// mistake, not a network condition).
func appendBody(w *wire.Writer, body any) error {
	switch v := body.(type) {
	case nil:
		w.Byte(kNil)
	case float64:
		w.Byte(kFloat64)
		w.F64(v)
	case int:
		w.Byte(kInt)
		w.Int(v)
	case uint64:
		w.Byte(kUint64)
		w.U64(v)
	case bool:
		w.Byte(kBool)
		w.Bool(v)
	case string:
		w.Byte(kString)
		w.String(v)
	case *[]float64:
		w.Byte(kFloat64s)
		w.Floats(*v)
	case *[]int:
		w.Byte(kInts)
		w.Int(len(*v))
		for _, x := range *v {
			w.Int(x)
		}
	case machine.Stats:
		w.Byte(kStats)
		w.Byte(byte(machine.NumPhases))
		w.Int(int(v.CurrentPhase()))
		w.Phases(&v.Phases)
	default:
		return &CodecError{Op: "encode", Msg: fmt.Sprintf("unsupported body type %T", body)}
	}
	return nil
}

// decodeBody parses one body from r, a slice boxed by wire.Box. A failure
// is left in r for decodeFrame to report; the reader's length checks keep a
// hostile length prefix from forcing a huge allocation.
func decodeBody(r *wire.Reader) any {
	switch kind := r.Byte("body kind"); kind {
	case kNil:
		return nil
	case kFloat64:
		return r.F64("float64")
	case kInt:
		return r.Int("int")
	case kUint64:
		return r.U64("uint64")
	case kBool:
		return r.Bool("bool")
	case kString:
		return r.String("string body")
	case kFloat64s:
		// Pool-backed: the receiving protocol returns this buffer with
		// wire.Put once unpacked, exactly as it does on the goroutine
		// backend.
		n := r.Len("[]float64", 8)
		return wire.Box(r.Col("[]float64", wire.Get(n), n))
	case kInts:
		n := r.Len("[]int", 8)
		out := wire.GetInts(n)[:n]
		for i := range out {
			out[i] = r.Int("[]int")
		}
		return wire.Box(out)
	case kStats:
		if n := r.Byte("stats phase count"); int(n) != machine.NumPhases {
			r.Fail("stats", "%d phases, want %d", n, machine.NumPhases)
		}
		phase := r.Int("stats phase")
		if phase < 0 || phase >= machine.NumPhases {
			r.Fail("stats", "current phase %d out of range", phase)
		}
		var st machine.Stats
		st.SetPhase(machine.Phase(phase))
		r.Phases("stats", &st.Phases)
		return st
	default:
		r.Fail("body", "unknown body kind 0x%02x", kind)
		return nil
	}
}
