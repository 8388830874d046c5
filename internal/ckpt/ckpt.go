// Package ckpt implements the versioned, CRC-guarded checkpoint format:
// one file per rank per epoch holding everything the rank needs to resume
// the simulation bit-identically — particle columns, field arrays,
// partition bounds, policy state, ledger estimates, the stats ledger and
// the clock/iteration cursors.
//
// The payload is written by wire.Writer and read by wire.Reader, the
// fixed-width little-endian codec the TCP frames of internal/comm use too:
// every length is validated against the remaining input before any
// allocation, trailing bytes are an error, and decoding never panics —
// malformed input yields a typed *CodecError. A successfully decoded shard
// re-encodes to exactly the bytes it was decoded from (the canonical fixed
// point the fuzz harness pins). Encode scratch cycles through the pooled
// wire buffers.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"picpar/internal/machine"
	"picpar/internal/particle"
	"picpar/internal/wire"
)

// Version is the checkpoint format version this package writes. Readers
// reject any other version loudly rather than guessing.
const Version = 3

// shardMagic opens every checkpoint file.
const shardMagic = "PICPARCK"

// headerSize is magic (8) + version u32 + crc u32 + payload length u64.
const headerSize = 8 + 4 + 4 + 8

// NumFieldArrays is the number of field-component arrays a shard carries,
// in the fixed order Ex, Ey, Ez, Bx, By, Bz, Jx, Jy, Jz, Rho (the layout
// of field.Arrays).
const NumFieldArrays = 10

// maxShardBytes bounds a declared payload length so corrupt headers cannot
// drive huge allocations.
const maxShardBytes = 1 << 32

// CodecError is the typed error for malformed checkpoint bytes. Decoding
// never panics: every structural problem surfaces as one of these.
type CodecError struct {
	Op  string // what was being decoded
	Msg string
}

func (e *CodecError) Error() string { return "ckpt: decode " + e.Op + ": " + e.Msg }

func decErr(op, format string, args ...any) error {
	return &CodecError{Op: op, Msg: fmt.Sprintf(format, args...)}
}

// Record captures one iteration's measurements, max over ranks (the
// quantities plotted in Figures 17–19): pic.IterationRecord, defined here
// because ckpt sits below pic and encodes it. Only rank 0's shard carries
// records; other shards store an empty list.
type Record struct {
	Iter int
	// Time is the iteration's execution time (simulated seconds),
	// excluding any redistribution triggered after it.
	Time float64
	// Compute is the iteration's computation time.
	Compute float64
	// Scatter-phase ghost traffic.
	ScatterBytesSent int64
	ScatterBytesRecv int64
	ScatterMsgsSent  int64
	ScatterMsgsRecv  int64
	// Redistributed reports whether redistribution ran after this
	// iteration; RedistTime is its cost.
	Redistributed bool
	RedistTime    float64
	// RedistStrategy names the layout strategy of the redistribution run
	// after this iteration; empty when none was.
	RedistStrategy string
	// BusyImbalance is max/mean over ranks of the iteration's busy time
	// (computation plus communication, excluding barrier idling) — the live
	// per-rank iteration-time load measurement the strategy experiments
	// compare (1.0 = perfectly balanced).
	BusyImbalance float64
	// Energies are recorded when diagnostics are enabled (else zero).
	FieldEnergy   float64
	KineticEnergy float64
}

// Shard is one rank's complete restart image at an epoch boundary (epoch E
// means "E iterations fully completed"). The Config* fields form the run
// signature: a restore into a run with a different signature is refused.
type Shard struct {
	Epoch int
	Rank  int
	Size  int

	// Run signature — must match the restoring run's configuration.
	Dims         int
	GridNx       int
	GridNy       int
	GridNz       int    // zero for 2-D runs
	Block        [6]int // owned mesh block i0, i1, j0, j1, k0, k1; k0 = k1 = 0 in 2-D
	NumParticles int
	Seed         int64
	Iterations   int
	PolicyName   string

	// Clock and measurement cursors.
	ClockNow float64 // simulated clock at the epoch boundary
	RunStart float64 // clock value when the iteration loop began
	InitTime float64 // agreed initial-distribution time
	Stats    machine.Stats

	// Simulation state.
	Particles   *particle.Store
	Fields      [NumFieldArrays][]float64
	Bounds      []float64 // psort incremental bucket bounds
	UpperKey    float64
	PolicyState []float64
	LedgerCost  []float64
	LedgerCount []float64

	// Rank 0 only: the measurement records of iterations [0, Epoch).
	Records []Record
}

// EncodeShard appends the complete file image of sh (header + payload) to
// dst and returns the extended slice.
func EncodeShard(dst []byte, sh *Shard) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(append(dst, shardMagic...), Version)
	dst = append(dst, make([]byte, 4+8)...) // crc and payload length, set below
	dst = appendPayload(dst, sh)
	payload := dst[start+headerSize:]
	binary.LittleEndian.PutUint32(dst[start+12:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(dst[start+16:], uint64(len(payload)))
	return dst
}

// encodedBound bounds len(EncodeShard(nil, sh)) from above, so WriteShard
// draws its scratch from the right wire size class up front: a buffer
// grown by append would be filed under a class the next shard's request
// never draws from.
func encodedBound(sh *Shard) int {
	floats := 8*sh.Particles.Len() + len(sh.Bounds) + len(sh.PolicyState) +
		len(sh.LedgerCost) + len(sh.LedgerCount) + 4 + NumFieldArrays
	for _, f := range sh.Fields {
		floats += len(f)
	}
	n := 256 + len(sh.PolicyName) + 48*machine.NumPhases + 8*floats
	for i := range sh.Records {
		n += 128 + len(sh.Records[i].RedistStrategy)
	}
	return n
}

// DecodeShard parses a complete file image produced by EncodeShard. All
// errors are *CodecError; decoding never panics.
func DecodeShard(b []byte) (*Shard, error) {
	payload, err := checkImage(b)
	if err != nil {
		return nil, err
	}
	return decodePayload(payload)
}

// checkImage validates the header and CRC of a file image and returns the
// payload bytes.
func checkImage(b []byte) ([]byte, error) {
	crc, err := checkHeader(b, len(b))
	if err != nil {
		return nil, err
	}
	payload := b[headerSize:]
	if err := checkCRC(crc, crc32.ChecksumIEEE(payload)); err != nil {
		return nil, err
	}
	return payload, nil
}

// checkHeader validates the header h of an image of fileLen bytes (h holds
// at least the first min(fileLen, headerSize) of them) and returns the
// CRC the header declares for the payload.
func checkHeader(h []byte, fileLen int) (uint32, error) {
	if fileLen < headerSize {
		return 0, decErr("header", "file too short: %d bytes", fileLen)
	}
	if string(h[:8]) != shardMagic {
		return 0, decErr("header", "bad magic %q", h[:8])
	}
	if v := binary.LittleEndian.Uint32(h[8:]); v != Version {
		return 0, decErr("header", "unsupported version %d (want %d)", v, Version)
	}
	n := binary.LittleEndian.Uint64(h[16:])
	if n > maxShardBytes {
		return 0, decErr("header", "declared payload length %d exceeds limit", n)
	}
	if uint64(fileLen-headerSize) != n {
		return 0, decErr("header", "payload length %d, header declares %d", fileLen-headerSize, n)
	}
	return binary.LittleEndian.Uint32(h[12:]), nil
}

// checkCRC compares the CRC a header declares with the one computed over
// the payload.
func checkCRC(file, computed uint32) error {
	if computed != file {
		return decErr("header", "crc mismatch: file %08x, computed %08x", file, computed)
	}
	return nil
}

// appendPayload encodes the shard body (everything the CRC guards).
func appendPayload(dst []byte, sh *Shard) []byte {
	w := wire.Writer{B: dst}
	w.Int(sh.Epoch)
	w.Int(sh.Rank)
	w.Int(sh.Size)
	w.Byte(byte(sh.Dims))
	w.Int(sh.GridNx)
	w.Int(sh.GridNy)
	w.Int(sh.GridNz)
	for _, v := range sh.Block {
		w.Int(v)
	}
	w.Int(sh.NumParticles)
	w.U64(uint64(sh.Seed))
	w.Int(sh.Iterations)
	w.String(sh.PolicyName)
	w.F64(sh.ClockNow)
	w.F64(sh.RunStart)
	w.F64(sh.InitTime)
	w.Byte(byte(sh.Stats.CurrentPhase()))
	w.Phases(&sh.Stats.Phases)
	// The particle columns share one count, so a decoded store is
	// structurally consistent by construction. Z is nil in a 2-D store and
	// writes nothing.
	s := sh.Particles
	w.F64(s.Charge)
	w.F64(s.Mass)
	w.Int(s.Len())
	w.Col(s.X)
	w.Col(s.Y)
	w.Col(s.Z)
	w.Col(s.Px)
	w.Col(s.Py)
	w.Col(s.Pz)
	w.Col(s.ID)
	w.Col(s.Key)
	// Vectors: nil and empty encode identically (length 0) and decode to
	// nil, the canonical form.
	for i := range sh.Fields {
		w.Floats(sh.Fields[i])
	}
	w.Floats(sh.Bounds)
	w.F64(sh.UpperKey)
	w.Floats(sh.PolicyState)
	w.Floats(sh.LedgerCost)
	w.Floats(sh.LedgerCount)
	w.Int(len(sh.Records))
	for i := range sh.Records {
		rec := &sh.Records[i]
		w.Int(rec.Iter)
		w.F64(rec.Time)
		w.F64(rec.Compute)
		w.U64(uint64(rec.ScatterBytesSent))
		w.U64(uint64(rec.ScatterBytesRecv))
		w.U64(uint64(rec.ScatterMsgsSent))
		w.U64(uint64(rec.ScatterMsgsRecv))
		w.Bool(rec.Redistributed)
		w.F64(rec.RedistTime)
		w.String(rec.RedistStrategy)
		w.F64(rec.BusyImbalance)
		w.F64(rec.FieldEnergy)
		w.F64(rec.KineticEnergy)
	}
	return w.B
}

// recordMinBytes is the smallest encoding of one Record (empty strategy
// string), used to validate a declared record count against the remaining
// input before allocating.
const recordMinBytes = 8 + 8 + 8 + 4*8 + 1 + 8 + 8 + 8 + 8 + 8

// decodePayload parses a shard body. It is the surface the fuzz harness
// drives directly (bypassing the CRC, which would mask payload bugs). The
// reads run in format order (Go evaluates the calls in a composite literal
// left to right); the first failure stops the rest and is reported once,
// at the end.
func decodePayload(b []byte) (*Shard, error) {
	r := wire.Reader{B: b}
	sh := &Shard{
		Epoch:        r.Nat("epoch"),
		Rank:         r.Nat("rank"),
		Size:         r.Nat("size"),
		Dims:         int(r.Byte("dims")),
		GridNx:       r.Nat("grid nx"),
		GridNy:       r.Nat("grid ny"),
		GridNz:       r.Nat("grid nz"),
		Block:        readBlock(&r),
		NumParticles: r.Nat("numparticles"),
		Seed:         int64(r.U64("seed")),
		Iterations:   r.Nat("iterations"),
		PolicyName:   r.String("policy name"),
		ClockNow:     r.F64("clock"),
		RunStart:     r.F64("runstart"),
		InitTime:     r.F64("inittime"),
	}
	if sh.Dims != 2 && sh.Dims != 3 {
		r.Fail("dims", "dimensionality %d (want 2 or 3)", sh.Dims)
	}
	phase := r.Byte("stats phase")
	if int(phase) >= machine.NumPhases {
		r.Fail("stats", "phase %d out of range (NumPhases %d)", phase, machine.NumPhases)
	}
	sh.Stats.SetPhase(machine.Phase(phase))
	r.Phases("stats", &sh.Stats.Phases)
	sh.Particles = readStore(&r, sh.Dims)
	for i := range sh.Fields {
		sh.Fields[i] = r.Floats("field array")
	}
	sh.Bounds = r.Floats("bounds")
	sh.UpperKey = r.F64("upper key")
	sh.PolicyState = r.Floats("policy state")
	sh.LedgerCost = r.Floats("ledger cost")
	sh.LedgerCount = r.Floats("ledger count")
	if n := r.Len("record count", recordMinBytes); n > 0 {
		sh.Records = make([]Record, n)
		for i := range sh.Records {
			sh.Records[i] = Record{
				Iter:             r.Nat("record iter"),
				Time:             r.F64("record time"),
				Compute:          r.F64("record compute"),
				ScatterBytesSent: int64(r.U64("record bytes sent")),
				ScatterBytesRecv: int64(r.U64("record bytes recv")),
				ScatterMsgsSent:  int64(r.U64("record msgs sent")),
				ScatterMsgsRecv:  int64(r.U64("record msgs recv")),
				Redistributed:    r.Bool("record redistributed"),
				RedistTime:       r.F64("record redist time"),
				RedistStrategy:   r.String("record strategy"),
				BusyImbalance:    r.F64("record busy imbalance"),
				FieldEnergy:      r.F64("record field energy"),
				KineticEnergy:    r.F64("record kinetic energy"),
			}
		}
	}
	r.End("payload")
	if err := readErr(&r); err != nil {
		return nil, err
	}
	return sh, nil
}

// readBlock reads the owned block appendPayload wrote.
func readBlock(r *wire.Reader) (b [6]int) {
	for i := range b {
		b[i] = r.Nat("block")
	}
	return b
}

// readStore reads the particle columns appendPayload wrote into a store
// sized once from their shared count.
func readStore(r *wire.Reader, dims int) *particle.Store {
	charge, mass := r.F64("store charge"), r.F64("store mass")
	newStore, cols := particle.NewStore, 7
	if dims == 3 {
		newStore, cols = particle.NewStore3, 8
	}
	n := r.Len("store count", 8*cols)
	s := newStore(n, charge, mass)
	s.X = r.Col("store x", s.X, n)
	s.Y = r.Col("store y", s.Y, n)
	if dims == 3 {
		s.Z = r.Col("store z", s.Z, n)
	}
	s.Px = r.Col("store px", s.Px, n)
	s.Py = r.Col("store py", s.Py, n)
	s.Pz = r.Col("store pz", s.Pz, n)
	s.ID = r.Col("store id", s.ID, n)
	s.Key = r.Col("store key", s.Key, n)
	return s
}

// readErr turns the reader's first failure into a *CodecError naming the
// field; nil when every read succeeded.
func readErr(r *wire.Reader) error {
	if what, msg := r.Failure(); msg != "" {
		return &CodecError{Op: what, Msg: msg}
	}
	return nil
}
