package pusher

import "math"

// Strip is the number of particles a strip kernel takes per call: a range
// kernel gathers one strip's fields into a stack buffer of this length,
// then pushes the strip.
const Strip = 64

// BorisStrip Boris-pushes the momenta (px[j], py[j], pz[j]), j < len(px) ≤
// Strip, under the fields eb[0..5][j] = (ex, ey, ez, bx, by, bz), with
// qmdt2 = HalfKick(s, dt). On amd64 it pushes two particles per SSE2
// instruction; every result is bit-identical to boris's, the scalar
// reference, which also pushes an odd tail and every particle elsewhere.
func BorisStrip(px, py, pz []float64, eb *[6][Strip]float64, qmdt2 float64) {
	n := len(px)
	py, pz = py[:n], pz[:n]
	ex, ey, ez, bx, by, bz := eb[0][:n], eb[1][:n], eb[2][:n], eb[3][:n], eb[4][:n], eb[5][:n]
	for j := borisPairs(px, py, pz, eb, qmdt2); j < n; j++ {
		px[j], py[j], pz[j] = boris(px[j], py[j], pz[j], ex[j], ey[j], ez[j], bx[j], by[j], bz[j], qmdt2)
	}
}

// advance moves (x[j], y[j]) and, unless z is nil, z[j] by (p/γ)·dt for
// momentum (px[j], py[j], pz[j]), j < len(x), with γ as
// particle.Store.Gamma computes it, leaving the periodic wrap to the
// caller. On amd64 it does two particles per SSE2 instruction,
// bit-identical to the scalar tail.
func advance(x, y, z, px, py, pz []float64, dt float64) {
	n := len(x)
	y, px, py, pz = y[:n], px[:n], py[:n], pz[:n]
	if z != nil {
		z = z[:n]
	}
	for j := advancePairs(x, y, z, px, py, pz, dt); j < n; j++ {
		gamma := math.Sqrt(1 + (float64(px[j]*px[j]) + float64(py[j]*py[j]) + float64(pz[j]*pz[j])))
		x[j] += float64(px[j] / gamma * dt)
		y[j] += float64(py[j] / gamma * dt)
		if z != nil {
			z[j] += float64(pz[j] / gamma * dt)
		}
	}
}
