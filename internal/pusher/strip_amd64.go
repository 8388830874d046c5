package pusher

// borisPairs pushes the even prefix of a strip in SSE2 and returns its
// length; the caller has resliced py and pz to len(px).
func borisPairs(px, py, pz []float64, eb *[6][Strip]float64, qmdt2 float64) int {
	n := len(px) &^ 1
	if n > 0 {
		borisSSE2(&px[0], &py[0], &pz[0], eb, n, qmdt2)
	}
	return n
}

// advancePairs is borisPairs for advance; z is nil or as long as x.
func advancePairs(x, y, z, px, py, pz []float64, dt float64) int {
	n := len(x) &^ 1
	if n > 0 {
		var zp *float64
		if z != nil {
			zp = &z[0]
		}
		advanceSSE2(&x[0], &y[0], zp, &px[0], &py[0], &pz[0], n, dt)
	}
	return n
}

// borisSSE2 is boris on particles [0, n), n even, two per instruction.
//
//go:noescape
func borisSSE2(px, py, pz *float64, eb *[6][Strip]float64, n int, qmdt2 float64)

// advanceSSE2 is advance on particles [0, n), n even; z may be nil.
//
//go:noescape
func advanceSSE2(x, y, z, px, py, pz *float64, n int, dt float64)
