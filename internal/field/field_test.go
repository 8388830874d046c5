package field

import (
	"math"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/mesh"
)

func dist(t *testing.T, nx, ny, p int) *mesh.Dist {
	t.Helper()
	d, err := mesh.NewDist(mesh.NewGrid(nx, ny), p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewLocalGeometry(t *testing.T) {
	d := dist(t, 16, 8, 4) // expect 4x1 or 2x2 grid; blocks owned exactly
	total := 0
	for r := 0; r < 4; r++ {
		l := NewLocal(d, r)
		total += l.Nx * l.Ny
		i0, i1, j0, j1 := d.Bounds(r)
		if l.I0 != i0 || l.J0 != j0 || l.Nx != i1-i0 || l.Ny != j1-j0 {
			t.Errorf("rank %d geometry mismatch", r)
		}
	}
	if total != 16*8 {
		t.Errorf("local sizes sum to %d, want %d", total, 16*8)
	}
}

func TestIdxHaloLayout(t *testing.T) {
	d := dist(t, 8, 8, 1)
	l := NewLocal(d, 0)
	// Distinct offsets for all owned + halo points.
	seen := map[int]bool{}
	for j := -1; j <= l.Ny; j++ {
		for i := -1; i <= l.Nx; i++ {
			c := l.Idx(i, j)
			if c < 0 || c >= len(l.Ez) {
				t.Fatalf("Idx(%d,%d) = %d out of array", i, j, c)
			}
			if seen[c] {
				t.Fatalf("Idx collision at (%d,%d)", i, j)
			}
			seen[c] = true
		}
	}
}

func TestContainsLocalOf(t *testing.T) {
	d := dist(t, 16, 16, 4)
	l := NewLocal(d, 3)
	if !l.Contains(l.I0, l.J0) || l.Contains(l.I0-1, l.J0) {
		t.Error("Contains boundary wrong")
	}
}

func TestZeroSources(t *testing.T) {
	d := dist(t, 4, 4, 1)
	l := NewLocal(d, 0)
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
	// periodic neighbour coordinate.
	for _, p := range []int{1, 2, 4, 8} {
		d := dist(t, 16, 12, p)
		g := d.G
		val := func(gi, gj int) float64 {
			gi = (gi + g.Nx) % g.Nx
			gj = (gj + g.Ny) % g.Ny
			return float64(gj*g.Nx+gi) + 0.25
		}
		runWorld(p, func(r comm.Transport) {
			l := NewLocal(d, r.Rank())
			for j := 0; j < l.Ny; j++ {
				for i := 0; i < l.Nx; i++ {
					v := val(l.I0+i, l.J0+j)
					c := l.Idx(i, j)
					l.Ex[c], l.Ey[c], l.Ez[c] = v, 2*v, 3*v
				}
			}
			l.ExchangeHalo(r, CompE)
			check := func(i, j int) {
				c := l.Idx(i, j)
				want := val(l.I0+i, l.J0+j)
				if l.Ex[c] != want || l.Ey[c] != 2*want || l.Ez[c] != 3*want {
					t.Errorf("p=%d rank=%d halo (%d,%d): got %g want %g", p, r.Rank(), i, j, l.Ex[c], want)
				}
			}
			for i := 0; i < l.Nx; i++ {
				check(i, -1)
				check(i, l.Ny)
			}
			for j := 0; j < l.Ny; j++ {
				check(-1, j)
				check(l.Nx, j)
			}
		})
	}
}

func TestExchangeHaloMessageCount(t *testing.T) {
	// Each rank sends exactly 4 coalesced messages per exchange on a
	// processor grid with distinct neighbours.
	d := dist(t, 16, 16, 16) // 4x4
	ws := commtest.Launch(16, machine.Params{Tau: 1}, func(r comm.Transport) {
		l := NewLocal(d, r.Rank())
		l.ExchangeHalo(r, CompB)
	})
	for i := range ws.Ranks {
		if got := ws.Ranks[i].Total().MsgsSent; got != 4 {
			t.Errorf("rank %d sent %d messages, want 4", i, got)
		}
	}
}

func TestSolvePreservesZeroField(t *testing.T) {
	d := dist(t, 8, 8, 4)
	runWorld(4, func(r comm.Transport) {
		l := NewLocal(d, r.Rank())
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
		l := NewLocal(d, r.Rank())
		for j := 0; j < l.Ny; j++ {
			for i := 0; i < l.Nx; i++ {
				l.Jz[l.Idx(i, j)] = 2.0
			}
		}
		dt := 0.25
		l.Solve(r, dt)
		for j := 0; j < l.Ny; j++ {
			for i := 0; i < l.Nx; i++ {
				c := l.Idx(i, j)
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
	// The distributed solve must be bitwise independent of the processor
	// count: compare a 4-rank run against a 1-rank run point by point.
	nx, ny := 16, 8
	serial := solveToGlobal(t, nx, ny, 1, 3)
	for _, p := range []int{2, 4, 8} {
		par := solveToGlobal(t, nx, ny, p, 3)
		for k := range serial {
			if math.Abs(serial[k]-par[k]) > 1e-13 {
				t.Fatalf("p=%d: field diverges at %d: serial %g parallel %g", p, k, serial[k], par[k])
			}
		}
	}
}

// solveToGlobal seeds deterministic J and initial E, runs `steps` solves on
// p ranks and gathers global Ez into a flat array.
func solveToGlobal(t *testing.T, nx, ny, p, steps int) []float64 {
	t.Helper()
	d := dist(t, nx, ny, p)
	out := make([]float64, nx*ny)
	runWorld(p, func(r comm.Transport) {
		l := NewLocal(d, r.Rank())
		for j := 0; j < l.Ny; j++ {
			for i := 0; i < l.Nx; i++ {
				gi, gj := l.I0+i, l.J0+j
				c := l.Idx(i, j)
				l.Jz[c] = math.Sin(float64(gi)) * math.Cos(float64(gj))
				l.Ez[c] = math.Cos(float64(gi + gj))
				l.Ex[c] = float64(gi%3) * 0.1
			}
		}
		for s := 0; s < steps; s++ {
			l.Solve(r, 0.2)
		}
		for j := 0; j < l.Ny; j++ {
			for i := 0; i < l.Nx; i++ {
				out[(l.J0+j)*nx+(l.I0+i)] = l.Ez[l.Idx(i, j)]
			}
		}
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
		l := NewLocal(d, r.Rank())
		for j := 0; j < l.Ny; j++ {
			for i := 0; i < l.Nx; i++ {
				l.Ex[l.Idx(i, j)] = 2 // energy ½·4 per point
			}
		}
		local := l.Energy()
		wantLocal := float64(l.Nx*l.Ny) * 2
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
		l := NewLocal(d, r.Rank())
		for j := 0; j < l.Ny; j++ {
			for i := 0; i < l.Nx; i++ {
				gi := l.I0 + i
				l.Ez[l.Idx(i, j)] = math.Sin(2 * math.Pi * float64(gi) / 32)
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
