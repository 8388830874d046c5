package wire

import (
	"math"
	"strings"
	"testing"

	"picpar/internal/machine"
	"picpar/internal/raceflag"
)

// TestCodecRoundTrip: every field a Writer appends reads back bit for bit,
// in order, and the Reader ends with nothing left and no failure.
func TestCodecRoundTrip(t *testing.T) {
	var st machine.Stats
	st.Phases[machine.PhaseGather] = machine.PhaseStats{ComputeTime: 0.5, CommTime: math.Inf(1),
		BytesSent: -3, BytesRecv: 7, MsgsSent: 1 << 40, MsgsRecv: 2}
	var w Writer
	w.U64(math.MaxUint64)
	w.Int(-5)
	w.Int(9)
	w.F64(-0.0)
	w.Byte(0xab)
	w.Bool(true)
	w.String("halo")
	w.Floats([]float64{1.5, math.NaN()})
	w.Floats(nil)
	w.Col([]float64{4, 5})
	w.Phases(&st.Phases)

	r := Reader{B: w.B}
	if v := r.U64("u64"); v != math.MaxUint64 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.Int("int"); v != -5 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Nat("nat"); v != 9 {
		t.Errorf("Nat = %d", v)
	}
	if v := r.F64("f64"); math.Float64bits(v) != math.Float64bits(-0.0) {
		t.Errorf("F64 = %v, want -0", v)
	}
	if v := r.Byte("byte"); v != 0xab {
		t.Errorf("Byte = %#x", v)
	}
	if v := r.Bool("bool"); !v {
		t.Error("Bool = false")
	}
	if v := r.String("string"); v != "halo" {
		t.Errorf("String = %q", v)
	}
	if v := r.Floats("floats"); len(v) != 2 || v[0] != 1.5 || !math.IsNaN(v[1]) {
		t.Errorf("Floats = %v", v)
	}
	if v := r.Floats("empty floats"); v != nil {
		t.Errorf("empty Floats = %#v, want nil", v)
	}
	if v := r.Col("col", []float64{3}, 2); len(v) != 3 || v[1] != 4 || v[2] != 5 {
		t.Errorf("Col = %v, want [3 4 5]", v)
	}
	var got machine.Stats
	r.Phases("phases", &got.Phases)
	if got.Phases != st.Phases {
		t.Errorf("Phases = %+v, want %+v", got.Phases, st.Phases)
	}
	r.End("end")
	if what, msg := r.Failure(); msg != "" {
		t.Fatalf("round trip failed at %s: %s", what, msg)
	}
}

// TestReaderFirstFailureSticks: the first failure is the one reported, it
// empties the input, and every later read returns a zero value.
func TestReaderFirstFailureSticks(t *testing.T) {
	var w Writer
	w.Int(-1)
	w.U64(42)
	r := Reader{B: w.B}
	if v := r.Nat("count"); v != 0 {
		t.Errorf("negative Nat = %d, want 0", v)
	}
	if v := r.U64("next"); v != 0 {
		t.Errorf("read after a failure = %d, want 0", v)
	}
	r.Fail("later", "must not replace the first failure")
	if what, msg := r.Failure(); what != "count" || !strings.Contains(msg, "negative") {
		t.Errorf("failure = %q: %q, want the negative count", what, msg)
	}
	if len(r.B) != 0 {
		t.Errorf("%d bytes left after a failure, want 0", len(r.B))
	}
}

// TestReaderRejectsMalformed: each read fails with a diagnostic on the
// input it cannot accept. A hostile length fails before the allocation it
// asks for, which could not succeed.
func TestReaderRejectsMalformed(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}
	cases := map[string]func(r *Reader){
		"short u64":       func(r *Reader) { r.U64("x") },
		"empty byte":      func(r *Reader) { r.B = nil; r.Byte("x") },
		"bool byte 2":     func(r *Reader) { r.B = []byte{2}; r.Bool("x") },
		"hostile length":  func(r *Reader) { r.B = huge; r.Len("x", 8) },
		"hostile string":  func(r *Reader) { r.B = huge; r.String("x") },
		"hostile floats":  func(r *Reader) { r.B = huge; r.Floats("x") },
		"column too long": func(r *Reader) { r.Col("x", nil, 2) },
		"trailing bytes":  func(r *Reader) { r.End("x") },
	}
	for name, read := range cases {
		r := Reader{B: []byte{1, 2, 3}}
		read(&r)
		if what, msg := r.Failure(); what != "x" || msg == "" {
			t.Errorf("%s: failure %q: %q, want a diagnostic for x", name, what, msg)
		}
	}
}

// TestReaderSuccessAllocatesNothing: a successful read of every fixed-width
// field and a column into a buffer that fits builds no error text and
// allocates nothing.
func TestReaderSuccessAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	var w Writer
	w.U64(1)
	w.Int(-2)
	w.Int(3)
	w.F64(4)
	w.Bool(false)
	w.Floats([]float64{5, 6})
	var st machine.Stats
	w.Phases(&st.Phases)
	dst := make([]float64, 0, 2)
	if allocs := testing.AllocsPerRun(50, func() {
		r := Reader{B: w.B}
		r.U64("a")
		r.Int("b")
		r.Nat("c")
		r.F64("d")
		r.Bool("e")
		r.Col("f", dst, r.Len("f", 8))
		r.Phases("g", &st.Phases)
		r.End("h")
		if _, msg := r.Failure(); msg != "" {
			t.Fatal(msg)
		}
	}); allocs != 0 {
		t.Errorf("successful reads: %v allocs/op, want 0", allocs)
	}
}
