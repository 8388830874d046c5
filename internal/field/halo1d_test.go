package field

import (
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/mesh"
)

// TestExchangeHalo1DDist exercises the degenerate processor grids (Px = 1)
// produced by the 1-D BLOCK distribution: the x-direction halo neighbours
// are the rank itself, which must work through local delivery without
// touching the network.
func TestExchangeHalo1DDist(t *testing.T) {
	g := mesh.NewGrid(8, 12)
	d, err := mesh.NewDist1D(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	val := func(gi, gj int) float64 {
		gi = (gi + g.Nx) % g.Nx
		gj = (gj + g.Ny) % g.Ny
		return float64(gj*100 + gi)
	}
	runWorld(3, func(r comm.Transport) {
		l := NewLocal(blockOf(d, r.Rank()), nil)
		for j := 0; j < l.N[1]; j++ {
			for i := 0; i < l.N[0]; i++ {
				l.Bx[l.Idx(i, j, 0)] = val(l.Lo[0]+i, l.Lo[1]+j)
			}
		}
		l.ExchangeHalo(r, CompB)
		// X halo wraps onto the rank's own opposite edge.
		for j := 0; j < l.N[1]; j++ {
			if got := l.Bx[l.Idx(-1, j, 0)]; got != val(l.Lo[0]-1, l.Lo[1]+j) {
				t.Errorf("rank %d x-low halo row %d = %g", r.Rank(), j, got)
			}
			if got := l.Bx[l.Idx(l.N[0], j, 0)]; got != val(l.Lo[0]+l.N[0], l.Lo[1]+j) {
				t.Errorf("rank %d x-high halo row %d = %g", r.Rank(), j, got)
			}
		}
		// Y halo comes from the neighbouring ranks.
		for i := 0; i < l.N[0]; i++ {
			if got := l.Bx[l.Idx(i, -1, 0)]; got != val(l.Lo[0]+i, l.Lo[1]-1) {
				t.Errorf("rank %d y-low halo col %d = %g", r.Rank(), i, got)
			}
			if got := l.Bx[l.Idx(i, l.N[1], 0)]; got != val(l.Lo[0]+i, l.Lo[1]+l.N[1]) {
				t.Errorf("rank %d y-high halo col %d = %g", r.Rank(), i, got)
			}
		}
	})
}

// TestSelfHaloNoNetworkTraffic confirms self-neighbour halo legs cost no
// messages.
func TestSelfHaloNoNetworkTraffic(t *testing.T) {
	g := mesh.NewGrid(8, 8)
	d, err := mesh.NewDist1D(g, 2) // Px = 1: x legs are self-sends
	if err != nil {
		t.Fatal(err)
	}
	ws := commtest.Launch(2, machine.Params{Tau: 1}, func(r comm.Transport) {
		l := NewLocal(blockOf(d, r.Rank()), nil)
		l.ExchangeHalo(r, CompE)
	})
	for i := range ws.Ranks {
		// Only the two y-direction messages hit the network.
		if got := ws.Ranks[i].Total().MsgsSent; got != 2 {
			t.Errorf("rank %d sent %d messages, want 2", i, got)
		}
	}
}
