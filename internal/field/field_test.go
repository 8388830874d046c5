package field

import (
	"fmt"
	"math"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/mesh3"
	"picpar/internal/par"
	"picpar/internal/sfc"
)

func dist(t *testing.T, nx, ny, p int) *mesh.Dist {
	t.Helper()
	d, err := mesh.NewDist(mesh.NewGrid(nx, ny), p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// block2 is rank r's block of the 2-D distribution d.
func block2(d *mesh.Dist, r int) Block {
	i0, i1, j0, j1 := d.Bounds(r)
	left, right, down, up := d.Neighbours(r)
	return Block{
		Dims:   2,
		Global: [3]int{d.G.Nx, d.G.Ny, 1},
		Lo:     [3]int{i0, j0, 0},
		N:      [3]int{i1 - i0, j1 - j0, 1},
		Nbr:    [3][2]int{{left, right}, {down, up}},
	}
}

// block3 is rank r's block of the 3-D distribution d.
func block3(d *mesh3.Dist, r int) Block {
	i0, i1, j0, j1, k0, k1 := d.Bounds(r)
	left, right, down, up, back, front := d.Neighbours(r)
	return Block{
		Dims:   3,
		Global: [3]int{d.G.Nx, d.G.Ny, d.G.Nz},
		Lo:     [3]int{i0, j0, k0},
		N:      [3]int{i1 - i0, j1 - j0, k1 - k0},
		Nbr:    [3][2]int{{left, right}, {down, up}, {back, front}},
	}
}

// grid is one distributed mesh under test: its rank count and each rank's
// block.
type grid struct {
	name  string
	p     int
	g     [3]int // global extents (1 in z for 2-D)
	block func(r int) Block
	procs [3]int // processor grid
}

func grid2(t *testing.T, nx, ny, p int) grid {
	d := dist(t, nx, ny, p)
	return grid{fmt.Sprintf("2d-%dx%d-p%d", nx, ny, p), p, [3]int{nx, ny, 1},
		func(r int) Block { return block2(d, r) }, [3]int{d.Px, d.Py, 1}}
}

func grid3(t *testing.T, nx, ny, nz, p int) grid {
	t.Helper()
	d, err := mesh3.NewDistOrdered(mesh3.NewGrid(nx, ny, nz), p, sfc.SchemeHilbert)
	if err != nil {
		t.Fatal(err)
	}
	return grid{fmt.Sprintf("3d-%dx%dx%d-p%d", nx, ny, nz, p), p, [3]int{nx, ny, nz},
		func(r int) Block { return block3(d, r) }, [3]int{d.Px, d.Py, d.Pz}}
}

// eachPoint calls fn with the local coordinates of every owned point of l,
// and with halo too of every face-halo point (one coordinate out of range).
func eachPoint(l *Local, halo bool, fn func(i, j, k int)) {
	h := 0
	if halo {
		h = 1
	}
	hz := h
	if l.Dims == 2 {
		hz = 0
	}
	for k := -hz; k < l.N[2]+hz; k++ {
		for j := -h; j < l.N[1]+h; j++ {
			for i := -h; i < l.N[0]+h; i++ {
				out := 0
				for a, x := range [3]int{i, j, k} {
					if x < 0 || x >= l.N[a] {
						out++
					}
				}
				if out <= h {
					fn(i, j, k)
				}
			}
		}
	}
}

func TestNewLocalGeometry(t *testing.T) {
	d := dist(t, 16, 8, 4) // expect 4x1 or 2x2 grid; blocks owned exactly
	total := 0
	for r := 0; r < 4; r++ {
		l := NewLocal(block2(d, r), nil)
		total += l.N[0] * l.N[1]
		i0, i1, j0, j1 := d.Bounds(r)
		if l.Lo[0] != i0 || l.Lo[1] != j0 || l.N[0] != i1-i0 || l.N[1] != j1-j0 {
			t.Errorf("rank %d geometry mismatch", r)
		}
	}
	if total != 16*8 {
		t.Errorf("local sizes sum to %d, want %d", total, 16*8)
	}
}

func TestIdxHaloLayout(t *testing.T) {
	// Owned and halo points (corners included) take every slot exactly
	// once; a 2-D block keeps its (Nx+2)(Ny+2) slots.
	for _, g := range []grid{grid2(t, 8, 8, 1), grid3(t, 4, 6, 5, 1)} {
		l := NewLocal(g.block(0), nil)
		hz := 1
		if l.Dims == 2 {
			hz = 0
		}
		want := (l.N[0] + 2) * (l.N[1] + 2) * (l.N[2] + 2*hz)
		if len(l.Ez) != want {
			t.Fatalf("%s: %d slots, want %d", g.name, len(l.Ez), want)
		}
		seen := map[int]bool{}
		for k := -hz; k < l.N[2]+hz; k++ {
			for j := -1; j <= l.N[1]; j++ {
				for i := -1; i <= l.N[0]; i++ {
					c := l.Idx(i, j, k)
					if c < 0 || c >= len(l.Ez) {
						t.Fatalf("%s: Idx(%d,%d,%d) = %d out of array", g.name, i, j, k, c)
					}
					if seen[c] {
						t.Fatalf("%s: Idx collision at (%d,%d,%d)", g.name, i, j, k)
					}
					seen[c] = true
				}
			}
		}
		if len(seen) != want {
			t.Errorf("%s: %d slots addressed, want %d", g.name, len(seen), want)
		}
	}
}

func TestContainsLocalOf(t *testing.T) {
	d := dist(t, 16, 16, 4)
	l := NewLocal(block2(d, 3), nil)
	if !l.Contains(l.Lo[0], l.Lo[1], 0) || l.Contains(l.Lo[0]-1, l.Lo[1], 0) {
		t.Error("Contains boundary wrong")
	}
}

func TestZeroSources(t *testing.T) {
	d := dist(t, 4, 4, 1)
	l := NewLocal(block2(d, 0), nil)
	l.Jx[5], l.Rho[7] = 3, 4
	l.ZeroSources()
	if l.Jx[5] != 0 || l.Rho[7] != 0 {
		t.Error("sources not cleared")
	}
}

// runWorld executes fn on p ranks with a zero-cost machine.
func runWorld(p int, fn func(r comm.Transport)) machine.WorldStats {
	return commtest.Launch(p, machine.Zero(), fn)
}

func TestExchangeHaloMatchesGlobalField(t *testing.T) {
	// Fill every rank's owned region from a known global function, exchange
	// halos, and verify each halo point equals the global value at the
	// periodic neighbour coordinate. The 3-D grid at P=4 is tiled 2×2×1,
	// so its z faces are self-neighbours.
	grids := []grid{grid2(t, 16, 12, 1), grid2(t, 16, 12, 2), grid2(t, 16, 12, 4), grid2(t, 16, 12, 8),
		grid3(t, 8, 8, 8, 4), grid3(t, 8, 8, 8, 8)}
	if pr := grids[4].procs; pr != [3]int{2, 2, 1} {
		t.Fatalf("3-D P=4 tiled %v, want 2×2×1", pr)
	}
	for _, g := range grids {
		val := func(l *Local, i, j, k int) float64 {
			gi := (l.Lo[0] + i + g.g[0]) % g.g[0]
			gj := (l.Lo[1] + j + g.g[1]) % g.g[1]
			gk := (l.Lo[2] + k + g.g[2]) % g.g[2]
			return float64((gk*g.g[1]+gj)*g.g[0]+gi) + 0.25
		}
		runWorld(g.p, func(r comm.Transport) {
			l := NewLocal(g.block(r.Rank()), nil)
			eachPoint(l, false, func(i, j, k int) {
				v, c := val(l, i, j, k), l.Idx(i, j, k)
				l.Ex[c], l.Ey[c], l.Ez[c] = v, 2*v, 3*v
			})
			l.ExchangeHalo(r, CompE)
			eachPoint(l, true, func(i, j, k int) {
				c, want := l.Idx(i, j, k), val(l, i, j, k)
				if l.Ex[c] != want || l.Ey[c] != 2*want || l.Ez[c] != 3*want {
					t.Errorf("%s rank=%d point (%d,%d,%d): got %g want %g", g.name, r.Rank(), i, j, k, l.Ex[c], want)
				}
			})
		})
	}
}

func TestExchangeHaloMessageCount(t *testing.T) {
	// Each rank sends exactly one coalesced message per face on a
	// processor grid with distinct neighbours: four in 2-D, six in 3-D.
	for _, c := range []struct {
		g    grid
		want int64
	}{{grid2(t, 16, 16, 16), 4}, {grid3(t, 8, 8, 8, 8), 6}} {
		ws := commtest.Launch(c.g.p, machine.Params{Tau: 1}, func(r comm.Transport) {
			l := NewLocal(c.g.block(r.Rank()), nil)
			l.ExchangeHalo(r, CompB)
		})
		for i := range ws.Ranks {
			if got := ws.Ranks[i].Total().MsgsSent; got != c.want {
				t.Errorf("%s: rank %d sent %d messages, want %d", c.g.name, i, got, c.want)
			}
		}
	}
}

func TestSolvePreservesZeroField(t *testing.T) {
	d := dist(t, 8, 8, 4)
	runWorld(4, func(r comm.Transport) {
		l := NewLocal(block2(d, r.Rank()), nil)
		l.Solve(r, 0.25)
		if l.Energy() != 0 {
			t.Errorf("rank %d: zero field gained energy %g", r.Rank(), l.Energy())
		}
	})
}

func TestSolveUniformJProducesUniformE(t *testing.T) {
	// With uniform J and no initial fields, E should grow uniformly:
	// dE/dt = −J, no curl develops, B stays zero.
	const p = 4
	d := dist(t, 8, 8, p)
	runWorld(p, func(r comm.Transport) {
		l := NewLocal(block2(d, r.Rank()), nil)
		for j := 0; j < l.N[1]; j++ {
			for i := 0; i < l.N[0]; i++ {
				l.Jz[l.Idx(i, j, 0)] = 2.0
			}
		}
		dt := 0.25
		l.Solve(r, dt)
		for j := 0; j < l.N[1]; j++ {
			for i := 0; i < l.N[0]; i++ {
				c := l.Idx(i, j, 0)
				if math.Abs(l.Ez[c]-(-2.0*dt)) > 1e-14 {
					t.Fatalf("Ez[%d,%d] = %g, want %g", i, j, l.Ez[c], -2.0*dt)
				}
				if l.Bx[c] != 0 || l.By[c] != 0 || l.Bz[c] != 0 {
					t.Fatalf("B grew from uniform E: (%g,%g,%g)", l.Bx[c], l.By[c], l.Bz[c])
				}
			}
		}
	})
}

func TestSolveParallelMatchesSerial(t *testing.T) {
	// The distributed solve must be independent of the processor count:
	// compare multi-rank runs against a 1-rank run point by point. Across
	// worker counts it must be bit-identical: the row ranges write
	// disjoint slots.
	for _, grids := range [][]grid{
		{grid2(t, 16, 8, 1), grid2(t, 16, 8, 2), grid2(t, 16, 8, 4), grid2(t, 16, 8, 8)},
		{grid3(t, 8, 6, 4, 1), grid3(t, 8, 6, 4, 4), grid3(t, 8, 6, 4, 8)},
	} {
		serial := solveToGlobal(grids[0], 1, 3)
		for _, g := range grids {
			par := solveToGlobal(g, 1, 3)
			for k := range serial {
				if math.Abs(serial[k]-par[k]) > 1e-13 {
					t.Fatalf("%s: field diverges at %d: serial %g parallel %g", g.name, k, serial[k], par[k])
				}
			}
			pooled := solveToGlobal(g, 3, 3)
			for k := range par {
				if math.Float64bits(pooled[k]) != math.Float64bits(par[k]) {
					t.Fatalf("%s: 3 workers diverge at %d: %g, 1 worker %g", g.name, k, pooled[k], par[k])
				}
			}
		}
	}
}

// solveToGlobal seeds deterministic J and initial E, runs `steps` solves on
// g's ranks with the given worker count each, and gathers global Ez into a
// flat array.
func solveToGlobal(g grid, workers, steps int) []float64 {
	out := make([]float64, g.g[0]*g.g[1]*g.g[2])
	runWorld(g.p, func(r comm.Transport) {
		pool := par.New(workers)
		defer pool.Close()
		l := NewLocal(g.block(r.Rank()), pool)
		gid := func(i, j, k int) (int, int, int) { return l.Lo[0] + i, l.Lo[1] + j, l.Lo[2] + k }
		eachPoint(l, false, func(i, j, k int) {
			gi, gj, gk := gid(i, j, k)
			c := l.Idx(i, j, k)
			l.Jz[c] = math.Sin(float64(gi)) * math.Cos(float64(gj)) * math.Cos(float64(gk))
			l.Ez[c] = math.Cos(float64(gi + gj + gk))
			l.Ex[c] = float64(gi%3) * 0.1
		})
		for s := 0; s < steps; s++ {
			l.Solve(r, 0.2)
		}
		eachPoint(l, false, func(i, j, k int) {
			gi, gj, gk := gid(i, j, k)
			out[(gk*g.g[1]+gj)*g.g[0]+gi] = l.Ez[l.Idx(i, j, k)]
		})
	})
	return out
}

// totalEnergy is the global field energy, summed over ranks.
func totalEnergy(r comm.Transport, l *Local) float64 {
	return comm.AllreduceFloat64(r, l.Energy(), func(a, b float64) float64 { return a + b })
}

func TestEnergyAndTotalEnergy(t *testing.T) {
	const p = 4
	d := dist(t, 8, 8, p)
	runWorld(p, func(r comm.Transport) {
		l := NewLocal(block2(d, r.Rank()), nil)
		for j := 0; j < l.N[1]; j++ {
			for i := 0; i < l.N[0]; i++ {
				l.Ex[l.Idx(i, j, 0)] = 2 // energy ½·4 per point
			}
		}
		local := l.Energy()
		wantLocal := float64(l.N[0]*l.N[1]) * 2
		if math.Abs(local-wantLocal) > 1e-12 {
			t.Errorf("local energy %g, want %g", local, wantLocal)
		}
		tot := totalEnergy(r, l)
		if math.Abs(tot-float64(8*8)*2) > 1e-12 {
			t.Errorf("total energy %g, want %g", tot, 128.0)
		}
	})
}

func TestVacuumWaveEnergyStable(t *testing.T) {
	// A smooth standing wave in vacuum should neither blow up nor decay
	// catastrophically over many steps at a CFL-safe dt.
	const p = 4
	d := dist(t, 32, 32, p)
	energies := make([]float64, p)
	runWorld(p, func(r comm.Transport) {
		l := NewLocal(block2(d, r.Rank()), nil)
		for j := 0; j < l.N[1]; j++ {
			for i := 0; i < l.N[0]; i++ {
				gi := l.Lo[0] + i
				l.Ez[l.Idx(i, j, 0)] = math.Sin(2 * math.Pi * float64(gi) / 32)
			}
		}
		e0 := totalEnergy(r, l)
		for s := 0; s < 100; s++ {
			l.Solve(r, 0.2)
		}
		e1 := totalEnergy(r, l)
		if e1 > 4*e0 || e1 < e0/4 {
			t.Errorf("rank %d: vacuum wave energy drifted %g -> %g", r.Rank(), e0, e1)
		}
		energies[r.Rank()] = e1
	})
	for i := 1; i < p; i++ {
		if energies[i] != energies[0] {
			t.Errorf("TotalEnergy disagrees across ranks: %v", energies)
		}
	}
}
