package pusher

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"picpar/internal/mesh"
	"picpar/internal/particle"
)

// stripInputs draws strip operands: signed zeros, subnormals, infinities,
// magnitudes from 1e-150 to 1e150, and standard normals.
type stripInputs struct{ rng *rand.Rand }

func (in stripInputs) next() float64 {
	special := [...]float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2e-310, -1.5e-320, math.Inf(1), math.Inf(-1), 1e-150, -1e150,
	}
	switch r := in.rng.Intn(16); {
	case r == 0:
		return special[in.rng.Intn(len(special))]
	case r < 5:
		return math.Copysign(math.Pow(10, 300*in.rng.Float64()-150), in.rng.Float64()-0.5)
	default:
		return in.rng.NormFloat64()
	}
}

func (in stripInputs) fill(xs []float64) {
	for i := range xs {
		xs[i] = in.next()
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestStripsMatchScalarBitForBit runs BorisStrip and advance at every
// length from 0 to Strip, on sub-slices at every 8-byte offset modulo 32
// (the field buffer too), and requires each particle's results to equal
// the scalar path's bits — boris, and x + (p/γ)·dt with
// particle.Store.Gamma's γ — and the slots past the strip to stay
// untouched.
func TestStripsMatchScalarBitForBit(t *testing.T) {
	in := stripInputs{rand.New(rand.NewSource(38))}
	kicks := [...]float64{-0.05, 0.5, 1e-100, -1e100, 0, math.Copysign(0, -1)}
	sentinel := math.Float64frombits(0x7ff4dead0000beef)
	var p [3][Strip + 8]float64
	ebBuf := make([]float64, 6*Strip+4)
	for n := 0; n <= Strip; n++ {
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 6; trial++ {
				eb := (*[6][Strip]float64)(unsafe.Pointer(&ebBuf[off]))
				for c := range p {
					in.fill(p[c][:])
					p[c][off+n] = sentinel
				}
				for c := range eb {
					in.fill(eb[c][:])
				}
				qmdt2 := kicks[trial]
				px, py, pz := p[0][off:off+n], p[1][off:off+n], p[2][off:off+n]
				var want [3][Strip]float64
				for j := 0; j < n; j++ {
					want[0][j], want[1][j], want[2][j] = boris(px[j], py[j], pz[j],
						eb[0][j], eb[1][j], eb[2][j], eb[3][j], eb[4][j], eb[5][j], qmdt2)
				}
				BorisStrip(px, py, pz, eb, qmdt2)
				for c := range p {
					for j := 0; j < n; j++ {
						if got := p[c][off+j]; !sameBits(got, want[c][j]) {
							t.Fatalf("BorisStrip n=%d off=%d: p%c[%d] = %x, scalar %x",
								n, off, "xyz"[c], j, math.Float64bits(got), math.Float64bits(want[c][j]))
						}
					}
					if !sameBits(p[c][off+n], sentinel) {
						t.Fatalf("BorisStrip n=%d off=%d wrote p%c past the strip", n, off, "xyz"[c])
					}
				}

				s := particle.NewStore3(n, -1, 1)
				for j := 0; j < n; j++ {
					s.Append3(in.next(), in.next(), in.next(), px[j], py[j], pz[j], 0)
				}
				dt := kicks[trial]
				var x [3][Strip + 8]float64
				for c := range x {
					x[c][off+n] = sentinel
				}
				copy(x[0][off:], s.X)
				copy(x[1][off:], s.Y)
				copy(x[2][off:], s.Z)
				z := x[2][off : off+n]
				if trial%2 == 1 {
					z = nil // the 2-D form
				}
				advance(x[0][off:off+n], x[1][off:off+n], z, px, py, pz, dt)
				for j := 0; j < n; j++ {
					g := s.Gamma(j)
					want := [3]float64{s.X[j] + s.Px[j]/g*dt, s.Y[j] + s.Py[j]/g*dt, s.Z[j]}
					if z != nil {
						want[2] += s.Pz[j] / g * dt
					}
					for c := range x {
						if !sameBits(x[c][off+j], want[c]) {
							t.Fatalf("advance n=%d off=%d 3-D=%t: %c[%d] = %g, scalar %g",
								n, off, z != nil, "xyz"[c], j, x[c][off+j], want[c])
						}
					}
				}
				for c := range x {
					if !sameBits(x[c][off+n], sentinel) {
						t.Fatalf("advance n=%d off=%d wrote %c past the strip", n, off, "xyz"[c])
					}
				}
			}
		}
	}
}

// TestBorisStripRefusesMoreThanAStrip checks that a strip longer than the
// field buffer panics instead of reading past it.
func TestBorisStripRefusesMoreThanAStrip(t *testing.T) {
	for n := Strip + 1; n <= Strip+3; n++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BorisStrip on %d particles did not panic", n)
				}
			}()
			p := make([]float64, n)
			BorisStrip(p, p, p, new([6][Strip]float64), 1)
		}()
	}
}

// TestMoveRangeMatchesScalar runs MoveRange on a 2-D and a 3-D store over every
// range length from 0 to Strip+3, at every start offset modulo 4, and
// compares each position with the one-particle update x + (p/γ)·dt,
// wrapped, bit for bit.
func TestMoveRangeMatchesScalar(t *testing.T) {
	in := stripInputs{rand.New(rand.NewSource(7))}
	g2, g3 := mesh.NewGrid(16, 8), mesh.NewGrid3(8, 4, 4)
	const dt = 0.7
	for n := 0; n <= Strip+3; n++ {
		for lo := 0; lo < 4; lo++ {
			s := particle.NewStore3(lo+n+1, -1, 1)
			s2 := particle.NewStore(lo+n+1, -1, 1)
			for i := 0; i < lo+n+1; i++ {
				p := [3]float64{in.next(), in.next(), in.next()}
				for c := range p { // finite momenta: an infinite one has no position
					if math.IsInf(p[c], 0) {
						p[c] = in.rng.NormFloat64()
					}
				}
				s.Append3(16*in.rng.Float64(), 8*in.rng.Float64(), 4*in.rng.Float64(), p[0], p[1], p[2], 0)
				s2.Append(s.X[i], s.Y[i], p[0], p[1], p[2], 0)
			}
			want2 := s2.Clone()
			want3 := s.Clone()
			for i := lo; i < lo+n; i++ {
				gamma := s.Gamma(i)
				want2.X[i], want2.Y[i], _ = g2.WrapPosition(s.X[i]+s.Px[i]/gamma*dt, s.Y[i]+s.Py[i]/gamma*dt, 0)
				want3.X[i], want3.Y[i], want3.Z[i] = g3.WrapPosition(
					s.X[i]+s.Px[i]/gamma*dt, s.Y[i]+s.Py[i]/gamma*dt, s.Z[i]+s.Pz[i]/gamma*dt)
			}
			got2, got3 := s2.Clone(), s.Clone()
			MoveRange(got2, lo, lo+n, g2, dt)
			MoveRange(got3, lo, lo+n, g3, dt)
			for i := 0; i < s.Len(); i++ {
				if !sameBits(got2.X[i], want2.X[i]) || !sameBits(got2.Y[i], want2.Y[i]) {
					t.Fatalf("MoveRange [%d,%d): particle %d at (%g, %g), scalar (%g, %g)",
						lo, lo+n, i, got2.X[i], got2.Y[i], want2.X[i], want2.Y[i])
				}
				if !sameBits(got3.X[i], want3.X[i]) || !sameBits(got3.Y[i], want3.Y[i]) || !sameBits(got3.Z[i], want3.Z[i]) {
					t.Fatalf("3-D MoveRange [%d,%d): particle %d differs from the scalar update", lo, lo+n, i)
				}
			}
		}
	}
}
