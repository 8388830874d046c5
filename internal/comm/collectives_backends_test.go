// Backend × world-size matrix for the core collectives: the same program —
// Bcast, ReduceFloat64, Allgather, ScanSumInt, with every expectation
// computed by a naive sequential loop — runs on the goroutine World, on
// real loopback TCP sockets and on the hierarchical host×core backend at
// P = 1 and a spread of non-power-of-two sizes. The binomial trees, ring
// allgather and linear scan all follow schedules whose edge cases live
// exactly at those sizes (odd trees with a childless branch, a ring of
// one), and every backend must agree with the goroutine backend bit for
// bit.

package comm

import (
	"fmt"
	"testing"
	"time"

	"picpar/internal/machine"
)

// collectivesProgram returns the rank program plus its naive sequential
// expectations for world size p. All checks report through t.Errorf, which
// is safe from rank goroutines.
func collectivesProgram(t *testing.T, p int, backend string) func(Transport) {
	// Naive expectations: straight loops over the contributed values.
	vals := make([]float64, p)
	for i := range vals {
		vals[i] = float64(i) + 7.5
	}
	wantSum := 0.0
	for _, v := range vals {
		wantSum += v
	}
	wantGather := make([]float64, 0, 2*p)
	for i := 0; i < p; i++ {
		wantGather = append(wantGather, float64(i), float64(10*i+1))
	}
	wantScan := make([]int, p) // exclusive prefix sum of (rank+3)
	for i := 1; i < p; i++ {
		wantScan[i] = wantScan[i-1] + (i - 1) + 3
	}

	return func(r Transport) {
		id := r.Rank()

		for _, root := range []int{0, p - 1, p / 2} {
			var body []float64
			if id == root {
				body = []float64{42.5, float64(root)}
			}
			got := Bcast(r, root, body, 16).([]float64)
			if len(got) != 2 || got[0] != 42.5 || got[1] != float64(root) {
				t.Errorf("%s p=%d: Bcast root=%d rank=%d got %v", backend, p, root, id, got)
			}
		}

		for _, root := range []int{0, p - 1} {
			got := ReduceFloat64(r, root, vals[id], func(a, b float64) float64 { return a + b })
			if id == root && got != wantSum {
				t.Errorf("%s p=%d: Reduce root=%d = %v, want %v", backend, p, root, got, wantSum)
			}
		}

		gat := AllgatherFloat64s(r, []float64{float64(id), float64(10*id + 1)})
		if len(gat) != len(wantGather) {
			t.Errorf("%s p=%d: Allgather rank=%d len %d, want %d", backend, p, id, len(gat), len(wantGather))
		} else {
			for i := range gat {
				if gat[i] != wantGather[i] {
					t.Errorf("%s p=%d: Allgather rank=%d [%d] = %v, want %v", backend, p, id, i, gat[i], wantGather[i])
					break
				}
			}
		}

		if got := ScanSumInt(r, id+3); got != wantScan[id] {
			t.Errorf("%s p=%d: ScanSumInt rank=%d = %d, want %d", backend, p, id, got, wantScan[id])
		}
	}
}

// collectiveTestPs: P=1 (every collective must degenerate to the identity)
// plus non-powers of two straddling the tree and skeleton edge cases.
var collectiveTestPs = []int{1, 3, 5, 6, 7}

func TestCollectivesGoroutineBackend(t *testing.T) {
	for _, p := range collectiveTestPs {
		w := newTestWorld(p, machine.Zero())
		w.Run(collectivesProgram(t, p, "goroutine"))
	}
}

func TestCollectivesTCPBackend(t *testing.T) {
	for _, p := range collectiveTestPs {
		_, errs := LaunchLoopback(netTestTemplate(), p, nil, collectivesProgram(t, p, "tcp"))
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("tcp p=%d rank %d: %v", p, rank, err)
			}
		}
	}
}

func TestCollectivesHierBackend(t *testing.T) {
	for _, c := range []struct{ p, hosts int }{{1, 1}, {6, 2}, {6, 3}} {
		backend := fmt.Sprintf("hier/%dhosts", c.hosts)
		_, err := LaunchHierarchical(c.p, c.hosts, machine.CM5(), EnvWatchdog(10*time.Second), nil,
			collectivesProgram(t, c.p, backend))
		if err != nil {
			t.Fatalf("%s p=%d: %v", backend, c.p, err)
		}
	}
}
