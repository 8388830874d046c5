//go:build !amd64

package pusher

// Off amd64 the strips are the scalar loops alone.

func borisPairs(px, py, pz []float64, eb *[6][Strip]float64, qmdt2 float64) int { return 0 }

func advancePairs(x, y, z, px, py, pz []float64, dt float64) int { return 0 }
