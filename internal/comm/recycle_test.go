package comm

import (
	"runtime"
	"testing"

	"picpar/internal/machine"
	"picpar/internal/raceflag"
	"picpar/internal/wire"
)

// steadyBytesPerRound runs warm unmeasured rounds and then rounds measured
// ones of an SPMD exchange, and returns on rank 0 the process-wide heap
// bytes allocated per measured round (every rank's share together).
func steadyBytesPerRound(r Transport, warm, rounds int, round func()) float64 {
	for i := 0; i < warm; i++ {
		round()
	}
	var m0, m1 runtime.MemStats
	Barrier(r)
	if r.Rank() == 0 {
		runtime.ReadMemStats(&m0)
	}
	Barrier(r)
	for i := 0; i < rounds; i++ {
		round()
	}
	Barrier(r)
	if r.Rank() == 0 {
		runtime.ReadMemStats(&m1)
	}
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds)
}

// pooledRound returns one all-to-many round of the recycling discipline the
// exchange hot paths follow: each sender fills a wire buffer per
// destination in dests, and each receiver returns what it unpacked to the
// pool. exchange runs the payload exchange proper.
func pooledRound(r Transport, n int, dests func(d int) bool, exchange func(send [][]float64, counts []int) [][]float64) func() {
	p, id := r.Size(), r.Rank()
	send := make([][]float64, p)
	counts := make([]int, p)
	for d := range counts {
		if d != id && dests(d) {
			counts[d] = n
		}
	}
	return func() {
		for d := range send {
			send[d] = nil
			if counts[d] > 0 {
				send[d] = wire.Get(n)[:n]
				for i := range send[d] {
					send[d][i] = float64(id*p + d)
				}
			}
		}
		for s, b := range exchange(send, counts) {
			if s != id && b != nil {
				if b[0] != float64(s*p+id) {
					panic("recycled buffer delivered a corrupted payload")
				}
				wire.Put(b)
			}
		}
	}
}

// TestNetSteadyStateRecyclesBuffers pins the TCP message path's buffer
// discipline: once warm, a P=4 all-to-many round over loopback sockets
// allocates far less than the payload it moves, because the transport
// returns every encoded []float64 body to the wire pool and every decode
// draws from it. A sender buffer that is encoded and then dropped costs one
// round's payload per round.
func TestNetSteadyStateRecyclesBuffers(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	const p, n = 4, 1 << 12
	payload := float64(p * (p - 1) * n * Float64Bytes)
	var perRound float64
	_, errs := LaunchLoopback(netTestTemplate(), p, nil, func(r Transport) {
		round := pooledRound(r, n, func(int) bool { return true }, func(send [][]float64, counts []int) [][]float64 {
			return AllToManyFloat64s(r, send, counts)
		})
		if b := steadyBytesPerRound(r, 10, 50, round); r.Rank() == 0 {
			perRound = b
		}
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	t.Logf("warm TCP all-to-many: %.0f B per round for a %.0f B payload", perRound, payload)
	if perRound >= payload/4 {
		t.Errorf("warm TCP all-to-many allocates %.0f B per round, want < %.0f (a quarter of the %.0f B payload)",
			perRound, payload/4, payload)
	}
}

// TestSystolicSteadyStateRecyclesBuffers pins the ring pulse's buffer
// discipline on the goroutine world under a neighbor-sparse link set,
// where every payload between unlinked ranks rides it: the pulse returns
// this rank's own payloads to the pool once they are encoded into the
// first frame, exactly as it returns forwarded ones.
func TestSystolicSteadyStateRecyclesBuffers(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	const p, n = 6, 1 << 12
	skeleton := NewNeighborSparse(p, func(a, b int) bool { return false })
	w := newTestWorld(p, machine.CM5())
	w.SetTopology(skeleton)
	defer w.Close()
	var perRound, payload float64
	w.Run(func(r Transport) {
		far := func(d int) bool { return !skeleton.Connected(r.Rank(), d) }
		if r.Rank() == 0 {
			for d := 0; d < p; d++ {
				if d != 0 && far(d) {
					payload += float64(p * n * Float64Bytes) // every rank has as many far peers
				}
			}
		}
		round := pooledRound(r, n, far, func(send [][]float64, counts []int) [][]float64 {
			return AllToManySystolicFloat64s(r, send, counts)
		})
		if b := steadyBytesPerRound(r, 10, 50, round); r.Rank() == 0 {
			perRound = b
		}
	})
	t.Logf("warm systolic round: %.0f B for a %.0f B payload", perRound, payload)
	if perRound >= payload/4 {
		t.Errorf("warm systolic round allocates %.0f B, want < %.0f (a quarter of the %.0f B payload)",
			perRound, payload/4, payload)
	}
}
