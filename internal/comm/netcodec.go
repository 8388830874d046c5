// The versioned binary codec of the TCP transport backend (net.go): it
// turns the `any` message bodies the algorithms exchange — and the
// decorator envelopes the chaos stack wraps them in — into length-prefixed
// frames on a socket, and back.
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
//     decoded []float64 payloads from its float pool; the transport returns
//     an encoded []float64 body to the pool and receivers wire.Put what
//     they unpack, so the exchange hot paths recycle their buffers over a
//     real network too. A warm data-frame decode allocates only the boxed
//     slice header of its payload.
//
// The format is fixed-width little-endian. Every frame starts with a
// version byte so an old binary talking to a new one fails loudly with a
// version diagnostic instead of misparsing.

package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"picpar/internal/machine"
	"picpar/internal/wire"
)

// NetCodecVersion is the wire-format version. Bump it on any change to the
// frame or body layout; peers with mismatched versions refuse to pair
// during the handshake and a mismatched frame fails decode with a typed
// error.
const NetCodecVersion = 2

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
	kRelEnv   = 0x08 // reliability envelope: seq + nested body
	kFaultEnv = 0x09 // fault envelope: metadata + nested body
	kStats    = 0x0a // machine.Stats ledger (end-of-run gathering)
)

// maxEnvelopeDepth bounds decorator-envelope nesting in a decoded body. The
// deepest legitimate stack is fault(rel(payload)) = 3; the cap keeps a
// hostile byte stream from inducing deep recursion.
const maxEnvelopeDepth = 6

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
	buf = append(buf, NetCodecVersion, f.kind)
	switch f.kind {
	case frameHeartbeat, frameGoodbye, framePeerOK:
		return buf, nil
	case frameData, frameOOB:
		buf = appendU64(buf, uint64(int64(f.tag)))
		buf = appendU64(buf, uint64(int64(f.nbytes)))
		buf = appendU64(buf, math.Float64bits(f.sentAt))
		return appendBody(buf, f.body, 0)
	case frameRelay:
		buf = appendU64(buf, uint64(int64(f.rank)))
		buf = appendU64(buf, uint64(int64(f.peer)))
		buf = appendU64(buf, uint64(int64(f.tag)))
		buf = appendU64(buf, uint64(int64(f.nbytes)))
		buf = appendU64(buf, math.Float64bits(f.sentAt))
		return appendBody(buf, f.body, 0)
	case frameOOBFrom:
		buf = appendU64(buf, uint64(int64(f.rank)))
		return appendBody(buf, f.body, 0)
	case frameHello:
		buf = appendU64(buf, f.worldID)
		buf = appendU64(buf, uint64(int64(f.rank)))
		buf = appendU64(buf, uint64(int64(f.size)))
		buf = appendString(buf, f.addr)
		return appendU64(buf, f.topo), nil
	case frameWelcome:
		buf = appendU64(buf, f.worldID)
		buf = appendU64(buf, uint64(len(f.addrs)))
		for _, a := range f.addrs {
			buf = appendString(buf, a)
		}
		return buf, nil
	case framePeerHello:
		buf = appendU64(buf, f.worldID)
		buf = appendU64(buf, uint64(int64(f.rank)))
		buf = appendU64(buf, uint64(int64(f.peer)))
		return buf, nil
	case frameReject:
		return appendString(buf, f.reason), nil
	}
	return nil, &CodecError{Op: "encode", Msg: fmt.Sprintf("unknown frame kind 0x%02x", f.kind)}
}

// decodeFrame parses one frame payload (without the length prefix). Any
// malformed input yields a *CodecError; trailing garbage after a valid
// frame is malformed too (a frame is exactly one message).
func decodeFrame(b []byte) (netFrame, error) {
	if len(b) < 2 {
		return netFrame{}, decErr("frame truncated: %d bytes", len(b))
	}
	if b[0] != NetCodecVersion {
		return netFrame{}, decErr("codec version %d, want %d", b[0], NetCodecVersion)
	}
	f := netFrame{kind: b[1]}
	rest := b[2:]
	var err error
	switch f.kind {
	case frameHeartbeat, frameGoodbye, framePeerOK:
	case frameData, frameOOB:
		var tag, nbytes, bits uint64
		if tag, rest, err = takeU64(rest, "tag"); err != nil {
			return netFrame{}, err
		}
		if nbytes, rest, err = takeU64(rest, "nbytes"); err != nil {
			return netFrame{}, err
		}
		if bits, rest, err = takeU64(rest, "sentAt"); err != nil {
			return netFrame{}, err
		}
		f.tag = Tag(int64(tag))
		f.nbytes = int(int64(nbytes))
		if f.nbytes < 0 {
			return netFrame{}, decErr("negative modelled size %d", f.nbytes)
		}
		f.sentAt = math.Float64frombits(bits)
		if f.body, rest, err = decodeBody(rest, 0); err != nil {
			return netFrame{}, err
		}
	case frameRelay:
		var tag, nbytes, bits uint64
		if f.rank, rest, err = takeInt(rest, "relay src"); err != nil {
			return netFrame{}, err
		}
		if f.peer, rest, err = takeInt(rest, "relay dst"); err != nil {
			return netFrame{}, err
		}
		if tag, rest, err = takeU64(rest, "tag"); err != nil {
			return netFrame{}, err
		}
		if nbytes, rest, err = takeU64(rest, "nbytes"); err != nil {
			return netFrame{}, err
		}
		if bits, rest, err = takeU64(rest, "sentAt"); err != nil {
			return netFrame{}, err
		}
		f.tag = Tag(int64(tag))
		f.nbytes = int(int64(nbytes))
		if f.nbytes < 0 {
			return netFrame{}, decErr("negative modelled size %d", f.nbytes)
		}
		f.sentAt = math.Float64frombits(bits)
		if f.body, rest, err = decodeBody(rest, 0); err != nil {
			return netFrame{}, err
		}
	case frameOOBFrom:
		if f.rank, rest, err = takeInt(rest, "oob origin"); err != nil {
			return netFrame{}, err
		}
		if f.body, rest, err = decodeBody(rest, 0); err != nil {
			return netFrame{}, err
		}
	case frameHello:
		if f.worldID, rest, err = takeU64(rest, "world id"); err != nil {
			return netFrame{}, err
		}
		if f.rank, rest, err = takeInt(rest, "rank"); err != nil {
			return netFrame{}, err
		}
		if f.size, rest, err = takeInt(rest, "size"); err != nil {
			return netFrame{}, err
		}
		if f.addr, rest, err = takeString(rest, "listen addr"); err != nil {
			return netFrame{}, err
		}
		if f.topo, rest, err = takeU64(rest, "topology digest"); err != nil {
			return netFrame{}, err
		}
	case frameWelcome:
		if f.worldID, rest, err = takeU64(rest, "world id"); err != nil {
			return netFrame{}, err
		}
		var n uint64
		if n, rest, err = takeU64(rest, "addr count"); err != nil {
			return netFrame{}, err
		}
		if n > uint64(len(rest)) {
			return netFrame{}, decErr("addr count %d exceeds remaining %d bytes", n, len(rest))
		}
		f.addrs = make([]string, n)
		for i := range f.addrs {
			if f.addrs[i], rest, err = takeString(rest, "addr"); err != nil {
				return netFrame{}, err
			}
		}
	case framePeerHello:
		if f.worldID, rest, err = takeU64(rest, "world id"); err != nil {
			return netFrame{}, err
		}
		if f.rank, rest, err = takeInt(rest, "from rank"); err != nil {
			return netFrame{}, err
		}
		if f.peer, rest, err = takeInt(rest, "to rank"); err != nil {
			return netFrame{}, err
		}
	case frameReject:
		if f.reason, rest, err = takeString(rest, "reason"); err != nil {
			return netFrame{}, err
		}
	default:
		return netFrame{}, decErr("unknown frame kind 0x%02x", f.kind)
	}
	if len(rest) != 0 {
		return netFrame{}, decErr("%d trailing bytes after frame", len(rest))
	}
	return f, nil
}

// bodyBytes is the encoded size of body's slice payload, so the encoder
// draws scratch of the right size class from the byte pool up front instead
// of growing it (and filing the grown buffer under a class the next small
// request never asks for).
func bodyBytes(body any) int {
	switch v := body.(type) {
	case []float64:
		return 8 * len(v)
	case []int:
		return 8 * len(v)
	case relEnvelope:
		return bodyBytes(v.body)
	case faultEnvelope:
		return bodyBytes(v.body)
	}
	return 0
}

// appendBody encodes one message body. Unsupported types are an encode
// error (the transport turns it into a TransportError — it is a programming
// mistake, not a network condition).
func appendBody(buf []byte, body any, depth int) ([]byte, error) {
	if depth > maxEnvelopeDepth {
		return nil, &CodecError{Op: "encode", Msg: "envelope nesting too deep"}
	}
	switch v := body.(type) {
	case nil:
		return append(buf, kNil), nil
	case float64:
		return appendU64(append(buf, kFloat64), math.Float64bits(v)), nil
	case int:
		return appendU64(append(buf, kInt), uint64(int64(v))), nil
	case uint64:
		return appendU64(append(buf, kUint64), v), nil
	case bool:
		b := byte(0)
		if v {
			b = 1
		}
		return append(buf, kBool, b), nil
	case string:
		return appendString(append(buf, kString), v), nil
	case []float64:
		buf = appendU64(append(buf, kFloat64s), uint64(len(v)))
		for _, x := range v {
			buf = appendU64(buf, math.Float64bits(x))
		}
		return buf, nil
	case []int:
		buf = appendU64(append(buf, kInts), uint64(len(v)))
		for _, x := range v {
			buf = appendU64(buf, uint64(int64(x)))
		}
		return buf, nil
	case relEnvelope:
		buf = appendU64(append(buf, kRelEnv), v.seq)
		return appendBody(buf, v.body, depth+1)
	case faultEnvelope:
		buf = appendU64(append(buf, kFaultEnv), v.seq)
		buf = appendU64(buf, uint64(int64(v.drops)))
		b := byte(0)
		if v.dup {
			b = 1
		}
		buf = append(buf, b)
		buf = appendU64(buf, math.Float64bits(v.delay))
		return appendBody(buf, v.body, depth+1)
	case machine.Stats:
		buf = append(buf, kStats, byte(machine.NumPhases))
		buf = appendU64(buf, uint64(int64(v.CurrentPhase())))
		for i := range v.Phases {
			ps := &v.Phases[i]
			buf = appendU64(buf, math.Float64bits(ps.ComputeTime))
			buf = appendU64(buf, math.Float64bits(ps.CommTime))
			buf = appendU64(buf, uint64(ps.BytesSent))
			buf = appendU64(buf, uint64(ps.BytesRecv))
			buf = appendU64(buf, uint64(ps.MsgsSent))
			buf = appendU64(buf, uint64(ps.MsgsRecv))
		}
		return buf, nil
	}
	return nil, &CodecError{Op: "encode", Msg: fmt.Sprintf("unsupported body type %T", body)}
}

// decodeBody parses one body, returning the value and the remaining bytes.
// Lengths are validated against the remaining input before allocating, so a
// hostile length prefix cannot force a huge allocation.
func decodeBody(b []byte, depth int) (any, []byte, error) {
	if depth > maxEnvelopeDepth {
		return nil, nil, decErr("envelope nesting deeper than %d", maxEnvelopeDepth)
	}
	if len(b) < 1 {
		return nil, nil, decErr("body truncated")
	}
	kind, rest := b[0], b[1:]
	switch kind {
	case kNil:
		return nil, rest, nil
	case kFloat64:
		bits, rest, err := takeU64(rest, "float64")
		if err != nil {
			return nil, nil, err
		}
		return math.Float64frombits(bits), rest, nil
	case kInt:
		v, rest, err := takeU64(rest, "int")
		if err != nil {
			return nil, nil, err
		}
		return int(int64(v)), rest, nil
	case kUint64:
		v, rest, err := takeU64(rest, "uint64")
		if err != nil {
			return nil, nil, err
		}
		return v, rest, nil
	case kBool:
		if len(rest) < 1 {
			return nil, nil, decErr("bool truncated")
		}
		if rest[0] > 1 {
			return nil, nil, decErr("bool byte 0x%02x", rest[0])
		}
		return rest[0] == 1, rest[1:], nil
	case kString:
		s, rest, err := takeString(rest, "string body")
		if err != nil {
			return nil, nil, err
		}
		return s, rest, nil
	case kFloat64s:
		n, rest, err := takeLen(rest, 8, "[]float64")
		if err != nil {
			return nil, nil, err
		}
		// Pool-backed: the receiving protocol returns this buffer with
		// wire.Put once unpacked, exactly as it does on the goroutine
		// backend.
		out := wire.Get(n)
		for i := 0; i < n; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:])))
		}
		return out, rest[n*8:], nil
	case kInts:
		n, rest, err := takeLen(rest, 8, "[]int")
		if err != nil {
			return nil, nil, err
		}
		out := make([]int, n)
		for i := range out {
			out[i] = int(int64(binary.LittleEndian.Uint64(rest[i*8:])))
		}
		return out, rest[n*8:], nil
	case kRelEnv:
		seq, rest, err := takeU64(rest, "rel seq")
		if err != nil {
			return nil, nil, err
		}
		body, rest, err := decodeBody(rest, depth+1)
		if err != nil {
			return nil, nil, err
		}
		return relEnvelope{seq: seq, body: body}, rest, nil
	case kFaultEnv:
		var env faultEnvelope
		var err error
		if env.seq, rest, err = takeU64(rest, "fault seq"); err != nil {
			return nil, nil, err
		}
		if env.drops, rest, err = takeInt(rest, "fault drops"); err != nil {
			return nil, nil, err
		}
		if len(rest) < 1 {
			return nil, nil, decErr("fault dup truncated")
		}
		if rest[0] > 1 {
			return nil, nil, decErr("fault dup byte 0x%02x", rest[0])
		}
		env.dup, rest = rest[0] == 1, rest[1:]
		var bits uint64
		if bits, rest, err = takeU64(rest, "fault delay"); err != nil {
			return nil, nil, err
		}
		env.delay = math.Float64frombits(bits)
		if env.body, rest, err = decodeBody(rest, depth+1); err != nil {
			return nil, nil, err
		}
		return env, rest, nil
	case kStats:
		if len(rest) < 1 {
			return nil, nil, decErr("stats phase count truncated")
		}
		if int(rest[0]) != machine.NumPhases {
			return nil, nil, decErr("stats with %d phases, want %d", rest[0], machine.NumPhases)
		}
		rest = rest[1:]
		phase, rest, err := takeInt(rest, "stats phase")
		if err != nil {
			return nil, nil, err
		}
		if phase < 0 || phase >= machine.NumPhases {
			return nil, nil, decErr("stats current phase %d out of range", phase)
		}
		var st machine.Stats
		st.SetPhase(machine.Phase(phase))
		for i := range st.Phases {
			vals := make([]uint64, 6)
			for j := range vals {
				if vals[j], rest, err = takeU64(rest, "stats field"); err != nil {
					return nil, nil, err
				}
			}
			st.Phases[i] = machine.PhaseStats{
				ComputeTime: math.Float64frombits(vals[0]),
				CommTime:    math.Float64frombits(vals[1]),
				BytesSent:   int64(vals[2]),
				BytesRecv:   int64(vals[3]),
				MsgsSent:    int64(vals[4]),
				MsgsRecv:    int64(vals[5]),
			}
		}
		return st, rest, nil
	}
	return nil, nil, decErr("unknown body kind 0x%02x", kind)
}

func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendU64(buf, uint64(len(s)))
	return append(buf, s...)
}

func takeU64(b []byte, what string) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, decErr("%s truncated: %d bytes", what, len(b))
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

func takeInt(b []byte, what string) (int, []byte, error) {
	v, rest, err := takeU64(b, what)
	if err != nil {
		return 0, nil, err
	}
	return int(int64(v)), rest, nil
}

// takeLen reads a u64 element count and validates that count*elemBytes fits
// in the remaining input. Like takeString, it names the length field in
// its error only on the error path, so a valid frame decodes without
// building strings.
func takeLen(b []byte, elemBytes int, what string) (int, []byte, error) {
	if len(b) < 8 {
		return 0, nil, decErr("%s length truncated: %d bytes", what, len(b))
	}
	n, rest := binary.LittleEndian.Uint64(b), b[8:]
	if n > uint64(len(rest))/uint64(elemBytes) {
		return 0, nil, decErr("%s length %d exceeds remaining %d bytes", what, n, len(rest))
	}
	return int(n), rest, nil
}

func takeString(b []byte, what string) (string, []byte, error) {
	if len(b) < 8 {
		return "", nil, decErr("%s length truncated: %d bytes", what, len(b))
	}
	n, rest := binary.LittleEndian.Uint64(b), b[8:]
	if n > uint64(len(rest)) {
		return "", nil, decErr("%s length %d exceeds remaining %d bytes", what, n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}
