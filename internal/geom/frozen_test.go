package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"picpar/internal/mesh"
	"picpar/internal/pusher"
	"picpar/internal/sfc"
)

// The reference formulas below are frozen copies of the separate 2-D and
// 3-D weight and cell code that the one geometry replaced. The range
// kernels are checked against Footprint, which is built from the merged
// pusher.Weights; these copies check Footprint itself, so the merge cannot
// drift from the formulas every golden was computed with.

// frozenCellOf2 is the 2-D CellOf: wrap, x/dx, clamp.
func frozenCellOf2(g mesh.Grid, x, y float64) (cx, cy int) {
	x, y = frozenWrap(x, g.Lx), frozenWrap(y, g.Ly)
	cx, cy = int(x/g.Dx()), int(y/g.Dy())
	if cx >= g.Nx {
		cx = g.Nx - 1
	}
	if cy >= g.Ny {
		cy = g.Ny - 1
	}
	return cx, cy
}

// frozenCellOf3 is the 3-D CellOf: wrap, x/L·N, clamp. It agrees with the
// one cell rule x/dx only where x/L·N is exact, as on power-of-two grids
// of unit cells.
func frozenCellOf3(g mesh.Grid, x, y, z float64) (cx, cy, cz int) {
	clampWrap := func(x, l float64, n int) int {
		c := int(frozenWrap(x, l) / l * float64(n))
		if c >= n {
			c = n - 1
		}
		return c
	}
	return clampWrap(x, g.Lx, g.Nx), clampWrap(y, g.Ly, g.Ny), clampWrap(z, g.Lz, g.Nz)
}

func frozenWrap(x, l float64) float64 {
	for x < 0 {
		x += l
	}
	for x >= l {
		x -= l
	}
	return x
}

// frozenWeights is the 2-D Weights: bilinear CIC of the clamped fractions.
func frozenWeights(g mesh.Grid, x, y float64) (cx, cy int, w [4]float64) {
	cx, cy = frozenCellOf2(g, x, y)
	fx := pusher.Clamp01(x/g.Dx() - float64(cx))
	fy := pusher.Clamp01(y/g.Dy() - float64(cy))
	return cx, cy, [4]float64{(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy}
}

// frozenTrilinear is the former 3-D weights: x/L·N cells, trilinear CIC.
func frozenTrilinear(g mesh.Grid, x, y, z float64) (cx, cy, cz int, w [8]float64) {
	cx, cy, cz = frozenCellOf3(g, x, y, z)
	fx := pusher.Clamp01(x/g.Dx() - float64(cx))
	fy := pusher.Clamp01(y/g.Dy() - float64(cy))
	fz := pusher.Clamp01(z/g.Dz() - float64(cz))
	return cx, cy, cz, frozenTrilinearCIC(fx, fy, fz)
}

func frozenTrilinearCIC(fx, fy, fz float64) [8]float64 {
	wx0, wy0, wz0 := 1-fx, 1-fy, 1-fz
	return [8]float64{
		wx0 * wy0 * wz0,
		fx * wy0 * wz0,
		wx0 * fy * wz0,
		fx * fy * wz0,
		wx0 * wy0 * fz,
		fx * wy0 * fz,
		wx0 * fy * fz,
		fx * fy * fz,
	}
}

// frozenOffsets are the vertex orders of the 2-D and 3-D footprints.
var (
	frozenOffsets2 = [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	frozenOffsets3 = [8][3]int{
		{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
		{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
	}
)

// frozenPositions returns random positions in g's domain salted with the
// boundary ones: every cell edge and 1 and 2 ulps either side, 0, the
// largest value below L, and a few outside [0, L) that CellOf wraps.
func frozenPositions(g mesh.Grid, dims int, rng *rand.Rand) [][3]float64 {
	n := [3]int{g.Nx, g.Ny, g.Nz}
	l := [3]float64{g.Lx, g.Ly, g.Lz}
	d := [3]float64{g.Dx(), g.Dy(), g.Dz()}
	var special [3][]float64
	for a := 0; a < dims; a++ {
		special[a] = []float64{0, math.Nextafter(l[a], 0), -0.3 * d[a], l[a] + 0.3*d[a]}
		for k := 0; k <= n[a]; k++ {
			x := float64(k) * d[a]
			special[a] = append(special[a], x,
				math.Nextafter(x, -1), math.Nextafter(math.Nextafter(x, -1), -1),
				math.Nextafter(x, l[a]+1), math.Nextafter(math.Nextafter(x, l[a]+1), l[a]+1))
		}
	}
	var pos [][3]float64
	for i := 0; i < 3000; i++ {
		var p [3]float64
		for a := 0; a < dims; a++ {
			if p[a] = rng.Float64() * l[a]; i%2 == 1 {
				p[a] = special[a][rng.Intn(len(special[a]))]
			}
		}
		pos = append(pos, p)
	}
	return pos
}

// TestWeightsMatchFrozenReference compares pusher.Weights, Footprint,
// CellKey and OwnerOfParticle with the frozen formulas bit for bit, at
// random and boundary positions, on every 2-D grid of the kernel cases and
// more, and on power-of-two 3-D grids of unit cells, where the frozen
// x/L·N cell rule is exact.
func TestWeightsMatchFrozenReference(t *testing.T) {
	grids := []mesh.Grid{
		mesh.NewGrid(32, 16), mesh.NewGrid(48, 20), mesh.NewGrid(6, 7), mesh.NewGrid(100, 12),
		{Nx: 48, Ny: 20, Nz: 1, Lx: 30, Ly: 27, Lz: 1},
		{Nx: 48, Ny: 20, Nz: 1, Lx: 13, Ly: 11.1, Lz: 1},
		mesh.NewGrid3(8, 8, 8), mesh.NewGrid3(16, 16, 16), mesh.NewGrid3(32, 32, 32), mesh.NewGrid3(16, 8, 4),
	}
	for _, g := range grids {
		dims := g.Dims()
		name := fmt.Sprintf("%dx%dx%d/L=%gx%gx%g", g.Nx, g.Ny, g.Nz, g.Lx, g.Ly, g.Lz)
		d, err := mesh.NewDist(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		ix3 := sfc.Indexer3(sfc.RowMajor3{W: g.Nx, H: g.Ny, D: g.Nz})
		ge := New3(g, d, ix3)
		if dims == 2 {
			ge = New2(g, d, sfc.MustNew(sfc.SchemeHilbert, g.Nx, g.Ny))
		}
		s := ge.NewStore(0, 1, 1)
		for _, p := range frozenPositions(g, dims, rand.New(rand.NewSource(int64(g.Nx*g.Ny*g.Nz)))) {
			if dims == 3 {
				s.Append3(p[0], p[1], p[2], 0, 0, 0, 0)
			} else {
				s.Append(p[0], p[1], 0, 0, 0, 0)
			}
		}
		var fp Footprint
		for i := 0; i < s.Len(); i++ {
			x, y, z := s.X[i], s.Y[i], 0.0
			var c [3]int
			var w [8]float64
			var gid [8]int
			if dims == 3 {
				z = s.Z[i]
				c[0], c[1], c[2], w = frozenTrilinear(g, x, y, z)
				for k, o := range frozenOffsets3 {
					gid[k] = g.PointIndex(c[0]+o[0], c[1]+o[1], c[2]+o[2])
				}
			} else {
				var w4 [4]float64
				c[0], c[1], w4 = frozenWeights(g, x, y)
				copy(w[:], w4[:])
				for k, o := range frozenOffsets2 {
					gid[k] = g.PointIndex(c[0]+o[0], c[1]+o[1], 0)
				}
			}
			at := fmt.Sprintf("%s: (%v, %v, %v)", name, x, y, z)
			in := pusher.Weights(g, x, y, z)
			if got := [3]int{in.CX, in.CY, in.CZ}; got != c {
				t.Fatalf("%s: Weights cell %v, frozen %v", at, got, c)
			}
			ge.Footprint(s, i, &fp)
			if fp.N != ge.NumVertices() {
				t.Fatalf("%s: footprint of %d vertices", at, fp.N)
			}
			for k := 0; k < fp.N; k++ {
				if math.Float64bits(in.W[k]) != math.Float64bits(w[k]) || math.Float64bits(fp.W[k]) != math.Float64bits(w[k]) {
					t.Fatalf("%s: weight %d: Weights %v, Footprint %v, frozen %v", at, k, in.W[k], fp.W[k], w[k])
				}
				if int(fp.Gid[k]) != gid[k] {
					t.Fatalf("%s: vertex %d at point %d, frozen %d", at, k, fp.Gid[k], gid[k])
				}
			}
			if key := ge.CellKey(s, i); key != uint64(ge.Ix.Index(c[0], c[1], c[2])) {
				t.Fatalf("%s: CellKey %d, frozen cell %v", at, key, c)
			}
			if o := ge.OwnerOfParticle(s, i); o != d.OwnerOfPoint(c[0], c[1], c[2]) {
				t.Fatalf("%s: owner %d, frozen cell %v's %d", at, o, c, d.OwnerOfPoint(c[0], c[1], c[2]))
			}
		}
		ge.AssignKeys(s)
		for i := 0; i < s.Len(); i++ {
			if s.Key[i] != float64(ge.CellKey(s, i)) {
				t.Fatalf("%s: AssignKeys gave particle %d key %v, CellKey %d", name, i, s.Key[i], ge.CellKey(s, i))
			}
		}
	}
}
