// The fixed-width little-endian byte codec under both binary formats: the
// TCP frames of internal/comm and the checkpoint shards of internal/ckpt.
//
// A Writer appends fields; a Reader takes them back in the same order. The
// Reader is built for hostile input. Every declared length is checked
// against the bytes that remain before anything is allocated, no read
// panics, and the first failure sticks: it empties the input, so every
// later read returns a zero value and consumes nothing. A decoder is
// therefore straight-line code with one error check at the end. Failure
// text (the field and what was wrong with it) is built only by the read
// that fails, so a successful decode builds no strings.

package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"picpar/internal/machine"
)

// Writer appends fixed-width little-endian fields to B.
type Writer struct{ B []byte }

// U64 appends v.
func (w *Writer) U64(v uint64) { w.B = binary.LittleEndian.AppendUint64(w.B, v) }

// Int appends v as a two's-complement u64.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// F64 appends the IEEE-754 bits of v.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Byte appends v.
func (w *Writer) Byte(v byte) { w.B = append(w.B, v) }

// Bool appends v as one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// String appends a u64 length and the bytes of s.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.B = append(w.B, s...)
}

// Floats appends a u64 length and the values of v.
func (w *Writer) Floats(v []float64) {
	w.Int(len(v))
	w.Col(v)
}

// Col appends the values of v without a length: a column whose length the
// format records elsewhere.
func (w *Writer) Col(v []float64) {
	n := len(w.B)
	w.B = slices.Grow(w.B, 8*len(v))[:n+8*len(v)]
	b := w.B[n:]
	for _, x := range v {
		binary.LittleEndian.PutUint64(b, math.Float64bits(x))
		b = b[8:]
	}
}

// Phases appends the per-phase block of a machine.Stats ledger: for each
// phase in order, compute and comm time, then bytes and messages sent and
// received.
func (w *Writer) Phases(p *[machine.NumPhases]machine.PhaseStats) {
	for i := range p {
		ps := &p[i]
		w.F64(ps.ComputeTime)
		w.F64(ps.CommTime)
		w.U64(uint64(ps.BytesSent))
		w.U64(uint64(ps.BytesRecv))
		w.U64(uint64(ps.MsgsSent))
		w.U64(uint64(ps.MsgsRecv))
	}
}

// Reader reads the fields a Writer appended, in order, from B: the bytes
// not yet read. Each read names the field it reads, for the failure text.
type Reader struct {
	B         []byte
	what, msg string // the first failure; msg is "" while there is none
}

// Fail records a failure of field what, unless one is recorded already,
// and empties the input. Decoders call it for values that parse but are
// out of range.
func (r *Reader) Fail(what, format string, args ...any) {
	if r.msg == "" {
		r.what, r.msg = what, fmt.Sprintf(format, args...)
	}
	r.B = nil
}

// Failure returns the field and the text of the first failure; msg is ""
// when every read so far succeeded.
func (r *Reader) Failure() (what, msg string) { return r.what, r.msg }

// End fails if bytes remain: a format ends where its last field does.
func (r *Reader) End(what string) {
	if len(r.B) != 0 {
		r.Fail(what, "%d trailing bytes", len(r.B))
	}
}

// U64 reads a u64.
func (r *Reader) U64(what string) uint64 {
	if len(r.B) < 8 {
		r.Fail(what, "truncated: %d bytes left, want 8", len(r.B))
		return 0
	}
	v := binary.LittleEndian.Uint64(r.B)
	r.B = r.B[8:]
	return v
}

// Int reads a two's-complement int.
func (r *Reader) Int(what string) int { return int(int64(r.U64(what))) }

// Nat reads an int that must not be negative.
func (r *Reader) Nat(what string) int {
	v := int64(r.U64(what))
	if v < 0 {
		r.Fail(what, "negative value %d", v)
		return 0
	}
	return int(v)
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64(what string) float64 { return math.Float64frombits(r.U64(what)) }

// Byte reads one byte.
func (r *Reader) Byte(what string) byte {
	if len(r.B) < 1 {
		r.Fail(what, "truncated")
		return 0
	}
	v := r.B[0]
	r.B = r.B[1:]
	return v
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool(what string) bool {
	v := r.Byte(what)
	if v > 1 {
		r.Fail(what, "bool byte 0x%02x", v)
	}
	return v == 1
}

// Len reads a u64 count of elemBytes-byte elements and checks that they
// fit in the bytes that remain, so a hostile count cannot drive an
// allocation. It returns 0 on failure.
func (r *Reader) Len(what string, elemBytes int) int {
	n := r.U64(what)
	if n > uint64(len(r.B))/uint64(elemBytes) {
		r.Fail(what, "length %d exceeds remaining %d bytes", n, len(r.B))
		return 0
	}
	return int(n)
}

// String reads a u64 length and that many bytes.
func (r *Reader) String(what string) string {
	n := r.Len(what, 1)
	s := string(r.B[:n])
	r.B = r.B[n:]
	return s
}

// Floats reads a u64 length and that many float64s into a new slice; an
// empty vector reads as nil.
func (r *Reader) Floats(what string) []float64 { return r.Col(what, nil, r.Len(what, 8)) }

// Col appends n float64s to dst, growing it at most once. n is a count
// the caller read from the input; Col checks it against the bytes that
// remain before growing dst.
func (r *Reader) Col(what string, dst []float64, n int) []float64 {
	if n < 0 || n > len(r.B)/8 {
		r.Fail(what, "column of %d values exceeds remaining %d bytes", n, len(r.B))
		return dst
	}
	dst = slices.Grow(dst, n)
	b := r.B[:8*n]
	r.B = r.B[8*n:]
	for len(b) >= 8 {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		b = b[8:]
	}
	return dst
}

// Phases reads the per-phase block Writer.Phases appended.
func (r *Reader) Phases(what string, p *[machine.NumPhases]machine.PhaseStats) {
	for i := range p {
		p[i] = machine.PhaseStats{
			ComputeTime: r.F64(what),
			CommTime:    r.F64(what),
			BytesSent:   int64(r.U64(what)),
			BytesRecv:   int64(r.U64(what)),
			MsgsSent:    int64(r.U64(what)),
			MsgsRecv:    int64(r.U64(what)),
		}
	}
}
