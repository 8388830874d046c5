// Package ckpt implements the versioned, CRC-guarded checkpoint format:
// one file per rank per epoch holding everything the rank needs to resume
// the simulation bit-identically — particle columns, field arrays,
// partition bounds, policy state, ledger estimates, the stats ledger and
// the clock/iteration cursors.
//
// The format follows the network codec's discipline (internal/comm
// netcodec.go): fixed-width little-endian encoding, every length validated
// against the remaining input before any allocation, trailing bytes are an
// error, and decoding never panics — malformed input yields a typed
// *CodecError. A successfully decoded shard re-encodes to exactly the
// bytes it was decoded from (the canonical fixed point the fuzz harness
// pins). Encode scratch cycles through the pooled wire buffers.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"picpar/internal/machine"
	"picpar/internal/particle"
)

// Version is the checkpoint format version this package writes. Readers
// reject any other version loudly rather than guessing.
const Version = 1

// shardMagic opens every checkpoint file.
const shardMagic = "PICPARCK"

// headerSize is magic (8) + version u32 + crc u32 + payload length u64.
const headerSize = 8 + 4 + 4 + 8

// NumFieldArrays is the number of field-component arrays a shard carries,
// in the fixed order Ex, Ey, Ez, Bx, By, Bz, Jx, Jy, Jz, Rho (the layout
// of geom.Arrays).
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

// Record is the checkpoint image of one completed iteration's measurement
// record (pic.IterationRecord — mirrored here because ckpt sits below pic).
// Only rank 0 carries records; other shards store an empty list.
type Record struct {
	Iter             int
	Time             float64
	Compute          float64
	ScatterBytesSent int64
	ScatterBytesRecv int64
	ScatterMsgsSent  int64
	ScatterMsgsRecv  int64
	Redistributed    bool
	RedistTime       float64
	RedistFailed     bool
	RedistStrategy   string
	BusyImbalance    float64
	FieldEnergy      float64
	KineticEnergy    float64
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
	GridNz       int // zero for 2-D runs
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
	dst = append(dst, shardMagic...)
	dst = appendU32(dst, Version)
	dst = appendU32(dst, 0) // crc placeholder
	dst = appendU64(dst, 0) // length placeholder
	payloadStart := len(dst)
	dst = appendPayload(dst, sh)
	payload := dst[payloadStart:]
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
	if len(b) < headerSize {
		return nil, decErr("header", "file too short: %d bytes", len(b))
	}
	if string(b[:8]) != shardMagic {
		return nil, decErr("header", "bad magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != Version {
		return nil, decErr("header", "unsupported version %d (want %d)", v, Version)
	}
	crc := binary.LittleEndian.Uint32(b[12:])
	n := binary.LittleEndian.Uint64(b[16:])
	if n > maxShardBytes {
		return nil, decErr("header", "declared payload length %d exceeds limit", n)
	}
	if uint64(len(b)-headerSize) != n {
		return nil, decErr("header", "payload length %d, header declares %d", len(b)-headerSize, n)
	}
	payload := b[headerSize:]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, decErr("header", "crc mismatch: file %08x, computed %08x", crc, got)
	}
	return payload, nil
}

// appendPayload encodes the shard body (everything the CRC guards).
func appendPayload(dst []byte, sh *Shard) []byte {
	dst = appendU64(dst, uint64(sh.Epoch))
	dst = appendU64(dst, uint64(sh.Rank))
	dst = appendU64(dst, uint64(sh.Size))
	dst = append(dst, byte(sh.Dims))
	dst = appendU64(dst, uint64(sh.GridNx))
	dst = appendU64(dst, uint64(sh.GridNy))
	dst = appendU64(dst, uint64(sh.GridNz))
	dst = appendU64(dst, uint64(sh.NumParticles))
	dst = appendU64(dst, uint64(sh.Seed))
	dst = appendU64(dst, uint64(sh.Iterations))
	dst = appendString(dst, sh.PolicyName)
	dst = appendF64(dst, sh.ClockNow)
	dst = appendF64(dst, sh.RunStart)
	dst = appendF64(dst, sh.InitTime)
	dst = append(dst, byte(sh.Stats.CurrentPhase()))
	for p := range sh.Stats.Phases {
		ps := &sh.Stats.Phases[p]
		dst = appendF64(dst, ps.ComputeTime)
		dst = appendF64(dst, ps.CommTime)
		dst = appendU64(dst, uint64(ps.BytesSent))
		dst = appendU64(dst, uint64(ps.BytesRecv))
		dst = appendU64(dst, uint64(ps.MsgsSent))
		dst = appendU64(dst, uint64(ps.MsgsRecv))
	}
	dst = appendStore(dst, sh.Particles)
	for i := range sh.Fields {
		dst = appendF64s(dst, sh.Fields[i])
	}
	dst = appendF64s(dst, sh.Bounds)
	dst = appendF64(dst, sh.UpperKey)
	dst = appendF64s(dst, sh.PolicyState)
	dst = appendF64s(dst, sh.LedgerCost)
	dst = appendF64s(dst, sh.LedgerCount)
	dst = appendU64(dst, uint64(len(sh.Records)))
	for i := range sh.Records {
		dst = appendRecord(dst, &sh.Records[i])
	}
	return dst
}

// decodePayload parses a shard body. It is the surface the fuzz harness
// drives directly (bypassing the CRC, which would mask payload bugs).
func decodePayload(b []byte) (*Shard, error) {
	sh := &Shard{}
	var err error
	if sh.Epoch, b, err = takeInt(b, "epoch"); err != nil {
		return nil, err
	}
	if sh.Rank, b, err = takeInt(b, "rank"); err != nil {
		return nil, err
	}
	if sh.Size, b, err = takeInt(b, "size"); err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, decErr("dims", "truncated")
	}
	sh.Dims = int(b[0])
	b = b[1:]
	if sh.Dims != 2 && sh.Dims != 3 {
		return nil, decErr("dims", "dimensionality %d (want 2 or 3)", sh.Dims)
	}
	if sh.GridNx, b, err = takeInt(b, "grid nx"); err != nil {
		return nil, err
	}
	if sh.GridNy, b, err = takeInt(b, "grid ny"); err != nil {
		return nil, err
	}
	if sh.GridNz, b, err = takeInt(b, "grid nz"); err != nil {
		return nil, err
	}
	if sh.NumParticles, b, err = takeInt(b, "numparticles"); err != nil {
		return nil, err
	}
	var u uint64
	if u, b, err = takeU64(b, "seed"); err != nil {
		return nil, err
	}
	sh.Seed = int64(u)
	if sh.Iterations, b, err = takeInt(b, "iterations"); err != nil {
		return nil, err
	}
	if sh.PolicyName, b, err = takeString(b, "policy name"); err != nil {
		return nil, err
	}
	if sh.ClockNow, b, err = takeF64(b, "clock"); err != nil {
		return nil, err
	}
	if sh.RunStart, b, err = takeF64(b, "runstart"); err != nil {
		return nil, err
	}
	if sh.InitTime, b, err = takeF64(b, "inittime"); err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, decErr("stats", "truncated phase byte")
	}
	phase := int(b[0])
	b = b[1:]
	if phase >= machine.NumPhases {
		return nil, decErr("stats", "phase %d out of range (NumPhases %d)", phase, machine.NumPhases)
	}
	sh.Stats.SetPhase(machine.Phase(phase))
	for p := range sh.Stats.Phases {
		ps := &sh.Stats.Phases[p]
		if ps.ComputeTime, b, err = takeF64(b, "stats compute"); err != nil {
			return nil, err
		}
		if ps.CommTime, b, err = takeF64(b, "stats comm"); err != nil {
			return nil, err
		}
		if u, b, err = takeU64(b, "stats bytes sent"); err != nil {
			return nil, err
		}
		ps.BytesSent = int64(u)
		if u, b, err = takeU64(b, "stats bytes recv"); err != nil {
			return nil, err
		}
		ps.BytesRecv = int64(u)
		if u, b, err = takeU64(b, "stats msgs sent"); err != nil {
			return nil, err
		}
		ps.MsgsSent = int64(u)
		if u, b, err = takeU64(b, "stats msgs recv"); err != nil {
			return nil, err
		}
		ps.MsgsRecv = int64(u)
	}
	if sh.Particles, b, err = takeStore(b, sh.Dims); err != nil {
		return nil, err
	}
	for i := range sh.Fields {
		if sh.Fields[i], b, err = takeF64s(b, "field array"); err != nil {
			return nil, err
		}
	}
	if sh.Bounds, b, err = takeF64s(b, "bounds"); err != nil {
		return nil, err
	}
	if sh.UpperKey, b, err = takeF64(b, "upper key"); err != nil {
		return nil, err
	}
	if sh.PolicyState, b, err = takeF64s(b, "policy state"); err != nil {
		return nil, err
	}
	if sh.LedgerCost, b, err = takeF64s(b, "ledger cost"); err != nil {
		return nil, err
	}
	if sh.LedgerCount, b, err = takeF64s(b, "ledger count"); err != nil {
		return nil, err
	}
	var nr int
	if nr, b, err = takeLen(b, "record count", recordMinBytes); err != nil {
		return nil, err
	}
	if nr > 0 {
		sh.Records = make([]Record, nr)
		for i := range sh.Records {
			if b, err = takeRecord(b, &sh.Records[i]); err != nil {
				return nil, err
			}
		}
	}
	if len(b) != 0 {
		return nil, decErr("payload", "%d trailing bytes", len(b))
	}
	return sh, nil
}

// appendStore encodes the particle columns. The dims byte plus a single
// count cover every column, so a decoded store is structurally consistent
// by construction.
func appendStore(dst []byte, s *particle.Store) []byte {
	dst = appendF64(dst, s.Charge)
	dst = appendF64(dst, s.Mass)
	dst = appendU64(dst, uint64(s.Len()))
	dst = appendCol(dst, s.X)
	dst = appendCol(dst, s.Y)
	if s.Z != nil {
		dst = appendCol(dst, s.Z)
	}
	dst = appendCol(dst, s.Px)
	dst = appendCol(dst, s.Py)
	dst = appendCol(dst, s.Pz)
	dst = appendCol(dst, s.ID)
	dst = appendCol(dst, s.Key)
	return dst
}

func takeStore(b []byte, dims int) (*particle.Store, []byte, error) {
	var charge, mass float64
	var err error
	if charge, b, err = takeF64(b, "store charge"); err != nil {
		return nil, nil, err
	}
	if mass, b, err = takeF64(b, "store mass"); err != nil {
		return nil, nil, err
	}
	cols := 7
	if dims == 3 {
		cols = 8
	}
	var n int
	if n, b, err = takeLen(b, "store count", 8*cols); err != nil {
		return nil, nil, err
	}
	var s *particle.Store
	if dims == 3 {
		s = particle.NewStore3(n, charge, mass)
	} else {
		s = particle.NewStore(n, charge, mass)
	}
	s.X, b = takeCol(b, n)
	s.Y, b = takeCol(b, n)
	if dims == 3 {
		s.Z, b = takeCol(b, n)
	}
	s.Px, b = takeCol(b, n)
	s.Py, b = takeCol(b, n)
	s.Pz, b = takeCol(b, n)
	s.ID, b = takeCol(b, n)
	s.Key, b = takeCol(b, n)
	return s, b, nil
}

// appendCol / takeCol move one n-length float column without a per-column
// length prefix (the store count covers them all; takeStore pre-validated
// the total size via takeLen).
func appendCol(dst []byte, col []float64) []byte {
	for _, v := range col {
		dst = appendF64(dst, v)
	}
	return dst
}

func takeCol(b []byte, n int) ([]float64, []byte) {
	col := make([]float64, n)
	for i := range col {
		col[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	return col, b
}

// recordMinBytes is the smallest encoding of one Record (empty strategy
// string), used to validate a declared record count against the remaining
// input before allocating.
const recordMinBytes = 8 + 8 + 8 + 4*8 + 1 + 8 + 1 + 8 + 8 + 8 + 8

func appendRecord(dst []byte, r *Record) []byte {
	dst = appendU64(dst, uint64(r.Iter))
	dst = appendF64(dst, r.Time)
	dst = appendF64(dst, r.Compute)
	dst = appendU64(dst, uint64(r.ScatterBytesSent))
	dst = appendU64(dst, uint64(r.ScatterBytesRecv))
	dst = appendU64(dst, uint64(r.ScatterMsgsSent))
	dst = appendU64(dst, uint64(r.ScatterMsgsRecv))
	dst = appendBool(dst, r.Redistributed)
	dst = appendF64(dst, r.RedistTime)
	dst = appendBool(dst, r.RedistFailed)
	dst = appendString(dst, r.RedistStrategy)
	dst = appendF64(dst, r.BusyImbalance)
	dst = appendF64(dst, r.FieldEnergy)
	dst = appendF64(dst, r.KineticEnergy)
	return dst
}

func takeRecord(b []byte, r *Record) ([]byte, error) {
	var err error
	var u uint64
	if r.Iter, b, err = takeInt(b, "record iter"); err != nil {
		return nil, err
	}
	if r.Time, b, err = takeF64(b, "record time"); err != nil {
		return nil, err
	}
	if r.Compute, b, err = takeF64(b, "record compute"); err != nil {
		return nil, err
	}
	if u, b, err = takeU64(b, "record bytes sent"); err != nil {
		return nil, err
	}
	r.ScatterBytesSent = int64(u)
	if u, b, err = takeU64(b, "record bytes recv"); err != nil {
		return nil, err
	}
	r.ScatterBytesRecv = int64(u)
	if u, b, err = takeU64(b, "record msgs sent"); err != nil {
		return nil, err
	}
	r.ScatterMsgsSent = int64(u)
	if u, b, err = takeU64(b, "record msgs recv"); err != nil {
		return nil, err
	}
	r.ScatterMsgsRecv = int64(u)
	if r.Redistributed, b, err = takeBool(b, "record redistributed"); err != nil {
		return nil, err
	}
	if r.RedistTime, b, err = takeF64(b, "record redist time"); err != nil {
		return nil, err
	}
	if r.RedistFailed, b, err = takeBool(b, "record redist failed"); err != nil {
		return nil, err
	}
	if r.RedistStrategy, b, err = takeString(b, "record strategy"); err != nil {
		return nil, err
	}
	if r.BusyImbalance, b, err = takeF64(b, "record busy imbalance"); err != nil {
		return nil, err
	}
	if r.FieldEnergy, b, err = takeF64(b, "record field energy"); err != nil {
		return nil, err
	}
	if r.KineticEnergy, b, err = takeF64(b, "record kinetic energy"); err != nil {
		return nil, err
	}
	return b, nil
}

// ---- primitive helpers (netcodec idiom) ----

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = appendU64(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendF64s writes a length-prefixed float vector. nil and empty encode
// identically (length 0) and decode to nil — the canonical form.
func appendF64s(dst []byte, v []float64) []byte {
	dst = appendU64(dst, uint64(len(v)))
	for _, x := range v {
		dst = appendF64(dst, x)
	}
	return dst
}

func takeU64(b []byte, what string) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, decErr(what, "truncated: %d bytes left, want 8", len(b))
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

func takeF64(b []byte, what string) (float64, []byte, error) {
	u, rest, err := takeU64(b, what)
	return math.Float64frombits(u), rest, err
}

func takeBool(b []byte, what string) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, decErr(what, "truncated")
	}
	switch b[0] {
	case 0:
		return false, b[1:], nil
	case 1:
		return true, b[1:], nil
	}
	return false, nil, decErr(what, "bool byte %d (want 0 or 1)", b[0])
}

// takeInt reads a u64 that must fit a non-negative int.
func takeInt(b []byte, what string) (int, []byte, error) {
	u, rest, err := takeU64(b, what)
	if err != nil {
		return 0, nil, err
	}
	if u > math.MaxInt64 || int64(u) < 0 {
		return 0, nil, decErr(what, "value %d out of range", u)
	}
	return int(u), rest, nil
}

// takeLen reads a u64 count of elements of elemSize bytes each and
// validates it against the remaining input, so corrupt counts cannot drive
// huge allocations.
func takeLen(b []byte, what string, elemSize int) (int, []byte, error) {
	u, rest, err := takeU64(b, what)
	if err != nil {
		return 0, nil, err
	}
	if u > uint64(len(rest))/uint64(elemSize) {
		return 0, nil, decErr(what, "declared %d elements, only %d bytes left", u, len(rest))
	}
	return int(u), rest, nil
}

func takeString(b []byte, what string) (string, []byte, error) {
	n, rest, err := takeLen(b, what, 1)
	if err != nil {
		return "", nil, err
	}
	return string(rest[:n]), rest[n:], nil
}

func takeF64s(b []byte, what string) ([]float64, []byte, error) {
	n, rest, err := takeLen(b, what, 8)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
	}
	return v, rest, nil
}
