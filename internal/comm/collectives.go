// Collectives, built exclusively from the Transport primitives. They are
// free functions rather than backend methods so that any decorator wrapping
// a Transport (e.g. the Tracer) observes every point-to-point message a
// collective moves, and so that alternative backends get the full
// collective surface for free.

package comm

import (
	"fmt"

	"picpar/internal/wire"
)

// Barrier synchronises all ranks using a dissemination barrier: ⌈log₂ p⌉
// rounds in which rank i signals (i+2^k) mod p and waits for (i−2^k) mod p.
// Because receives are causal, every rank's clock leaves the barrier at a
// time no earlier than every other rank's entry time.
func Barrier(t Transport) { barrier(t, tagBarrier) }

// barrier is the dissemination barrier on an explicit tag. Expose's
// internal barriers use the dedicated tagExpose so they can never pair with
// decorator-level tagBarrier traffic (e.g. a duplicate envelope a Faulty
// decorator left behind after the application's barrier completed).
func barrier(t Transport, tag Tag) {
	p := t.Size()
	if p == 1 {
		return
	}
	id := t.Rank()
	for k := 1; k < p; k <<= 1 {
		dst := (id + k) % p
		src := (id - k + p) % p
		t.Send(dst, tag, nil, 0)
		t.Recv(src, tag)
	}
}

// Bcast broadcasts body (of nbytes) from root along a binomial tree and
// returns the received value on every rank (the root returns body itself).
// A sent slice belongs to its receiver, yet every rank keeps and returns the
// value it forwards, so a []float64 goes to each child as a pooled copy.
func Bcast(t Transport, root int, body any, nbytes int) any {
	p := t.Size()
	if p == 1 {
		return body
	}
	vr := (t.Rank() - root + p) % p // virtual rank with root at 0
	hb := highestSetBit(vr)         // 0 for the root
	var val any
	if vr == 0 {
		val = body
	} else {
		// Parent in the binomial tree: clear the highest set bit.
		parent := ((vr - hb) + root) % p
		val, _ = t.Recv(parent, tagBcast)
	}
	// Children of vr are vr+2^k for every 2^k above vr's highest set bit.
	for mask := nextPow2(p) >> 1; mask > hb; mask >>= 1 {
		if child := vr + mask; child < p {
			t.Send((child+root)%p, tagBcast, sendCopy(val), nbytes)
		}
	}
	return val
}

// sendCopy is what Bcast sends a child in place of val: a []float64 as a
// copy drawn from the wire pool (on TCP the transport returns a sent slice
// to the pool once encoded), anything else as it is.
func sendCopy(val any) any {
	if v, ok := val.([]float64); ok {
		return append(wire.Get(len(v)), v...)
	}
	return val
}

// ReduceFloat64 reduces one float64 per rank to root with op (must be
// associative and commutative). Non-root ranks return 0.
func ReduceFloat64(t Transport, root int, x float64, op func(a, b float64) float64) float64 {
	p := t.Size()
	vr := (t.Rank() - root + p) % p
	acc := x
	for mask := 1; mask < nextPow2(p); mask <<= 1 {
		if vr&mask != 0 {
			parent := (vr - mask + root) % p
			t.Send(parent, tagReduce, acc, Float64Bytes)
			return 0
		}
		if child := vr + mask; child < p {
			body, _ := t.Recv((child+root)%p, tagReduce)
			acc = op(acc, body.(float64))
			t.Compute(1)
		}
	}
	return acc
}

// AllreduceFloat64 reduces one float64 per rank with op and returns the
// result on every rank (reduce-to-root then broadcast; correct for any p).
func AllreduceFloat64(t Transport, x float64, op func(a, b float64) float64) float64 {
	v := ReduceFloat64(t, 0, x, op)
	return Bcast(t, 0, v, Float64Bytes).(float64)
}

// AllreduceSumFloat64s element-wise sums a vector across ranks, returning
// the full sum on every rank. This is the dominant global operation of the
// replicated-mesh (Lubeck–Faber style) baseline.
func AllreduceSumFloat64s(t Transport, x []float64) []float64 {
	acc := append([]float64(nil), x...)
	vr := t.Rank()
	p := t.Size()
	for mask := 1; mask < nextPow2(p); mask <<= 1 {
		if vr&mask != 0 {
			SendFloat64s(t, vr-mask, tagReduce, acc)
			acc = nil
			break
		}
		if child := vr + mask; child < p {
			v := RecvFloat64s(t, child, tagReduce)
			for i := range acc {
				acc[i] += v[i]
			}
			t.Compute(len(acc))
		}
	}
	out := Bcast(t, 0, acc, len(x)*Float64Bytes)
	return out.([]float64)
}

// AllreduceMaxFloat64 returns the maximum of x over all ranks, on all ranks.
func AllreduceMaxFloat64(t Transport, x float64) float64 {
	return AllreduceFloat64(t, x, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// AllreduceSumInt returns the sum of x over all ranks, on all ranks.
func AllreduceSumInt(t Transport, x int) int {
	v := AllreduceFloat64(t, float64(x), func(a, b float64) float64 { return a + b })
	return int(v + 0.5)
}

// Allgather performs a "global concatenation": every rank contributes a
// fixed-size block and every rank receives the concatenation in rank order.
// Implemented as a ring: p−1 steps each forwarding one block, so the cost is
// (p−1)·(τ + |block|·μ) — the global-concatenate term of the paper's
// analysis.
func Allgather[T any](t Transport, block []T, elemBytes int) []T {
	p := t.Size()
	id := t.Rank()
	n := len(block)
	out := make([]T, n*p)
	copy(out[id*n:], block)
	if p == 1 {
		return out
	}
	next := (id + 1) % p
	prev := (id - 1 + p) % p
	cur := append([]T(nil), block...)
	curOwner := id
	for step := 0; step < p-1; step++ {
		t.Send(next, tagAllgather, cur, n*elemBytes)
		body, _ := t.Recv(prev, tagAllgather)
		cur = body.([]T)
		curOwner = (curOwner - 1 + p) % p
		copy(out[curOwner*n:], cur)
	}
	return out
}

// AllgatherInts gathers fixed-size int blocks from all ranks.
func AllgatherInts(t Transport, block []int) []int { return Allgather(t, block, IntBytes) }

// AllgatherFloat64s gathers fixed-size float64 blocks from all ranks. It
// performs exactly the same ring exchange as the generic Allgather (so the
// simulated cost is identical) but draws its ring buffer from the wire
// pool and returns the last-held block to it, keeping the per-call
// allocation down to the result slice.
func AllgatherFloat64s(t Transport, block []float64) []float64 {
	p := t.Size()
	id := t.Rank()
	n := len(block)
	out := make([]float64, n*p)
	copy(out[id*n:], block)
	if p == 1 {
		return out
	}
	next := (id + 1) % p
	prev := (id - 1 + p) % p
	cur := append(wire.Get(n), block...)
	curOwner := id
	for step := 0; step < p-1; step++ {
		t.Send(next, tagAllgather, cur, n*Float64Bytes)
		body, _ := t.Recv(prev, tagAllgather)
		cur = body.([]float64)
		curOwner = (curOwner - 1 + p) % p
		copy(out[curOwner*n:], cur)
	}
	wire.Put(cur)
	return out
}

// ExchangeCounts distributes an all-to-many traffic table: sendCounts[d] is
// the number of elements this rank will send to rank d. Returns
// recvCounts[s], the number of elements rank s will send here. This is the
// "global concatenate the myId row of table" step of the paper's
// redistribution algorithm (Figure 12, line 15).
func ExchangeCounts(t Transport, sendCounts []int) (recvCounts []int) {
	p := t.Size()
	if len(sendCounts) != p {
		panic(fmt.Sprintf("comm: ExchangeCounts len=%d want P=%d", len(sendCounts), p))
	}
	table := AllgatherInts(t, sendCounts)
	recvCounts = make([]int, p)
	for s := 0; s < p; s++ {
		recvCounts[s] = table[s*p+t.Rank()]
	}
	return recvCounts
}

// AllToMany performs the paper's all-to-many exchange: send[d] goes to rank
// d. Empty slices send nothing — no τ is charged for absent messages,
// matching the paper's "number of messages" accounting. recvCounts must come
// from ExchangeCounts or equivalent global knowledge. Returns the received
// slices indexed by source rank; recv[self] aliases send[self].
//
// The schedule is the classic staggered pairwise exchange: at step s, send
// to (id+s) mod p and receive from (id−s) mod p.
func AllToMany[T any](t Transport, send [][]T, recvCounts []int, elemBytes int) [][]T {
	p := t.Size()
	id := t.Rank()
	if len(send) != p || len(recvCounts) != p {
		panic(fmt.Sprintf("comm: AllToMany len(send)=%d len(recvCounts)=%d want P=%d",
			len(send), len(recvCounts), p))
	}
	recv := make([][]T, p)
	if len(send[id]) > 0 {
		recv[id] = send[id]
	}
	for s := 1; s < p; s++ {
		dst := (id + s) % p
		src := (id - s + p) % p
		if len(send[dst]) > 0 {
			t.Send(dst, tagAlltoMany, send[dst], len(send[dst])*elemBytes)
		}
		if recvCounts[src] > 0 {
			body, _ := t.Recv(src, tagAlltoMany)
			recv[src] = body.([]T)
			if len(recv[src]) != recvCounts[src] {
				panic(fmt.Sprintf("comm: all-to-many size mismatch from %d: got %d want %d",
					src, len(recv[src]), recvCounts[src]))
			}
		}
	}
	return recv
}

// AllToManyFloat64s is AllToMany for float64 payloads.
func AllToManyFloat64s(t Transport, send [][]float64, recvCounts []int) [][]float64 {
	return AllToMany(t, send, recvCounts, Float64Bytes)
}

// ExposeMaxFloat64 returns the maximum over ranks of a float64 measurement,
// free of modelled network cost except two barriers.
func ExposeMaxFloat64(t Transport, v float64) float64 {
	all := t.Expose(v)
	m := v
	for _, x := range all {
		if f := x.(float64); f > m {
			m = f
		}
	}
	return m
}

// ExposeMaxFloat64s element-wise maximises a measurement vector over ranks.
func ExposeMaxFloat64s(t Transport, v []float64) []float64 {
	all := t.Expose(v)
	out := append([]float64(nil), v...)
	for _, x := range all {
		vec := x.([]float64)
		for i := range out {
			if vec[i] > out[i] {
				out[i] = vec[i]
			}
		}
	}
	return out
}

// ExposeSumFloat64 returns the sum over ranks of a float64 measurement.
func ExposeSumFloat64(t Transport, v float64) float64 {
	all := t.Expose(v)
	s := 0.0
	for _, x := range all {
		s += x.(float64)
	}
	return s
}

// ScanSumInt returns the exclusive prefix sum of x over ranks: rank i gets
// x₀+…+x_{i−1} (rank 0 gets 0). Linear chain; used by the order-maintaining
// load balance.
func ScanSumInt(t Transport, x int) int {
	acc := 0
	if t.Rank() > 0 {
		body, _ := t.Recv(t.Rank()-1, tagScan)
		acc = body.(int)
	}
	if t.Rank()+1 < t.Size() {
		t.Send(t.Rank()+1, tagScan, acc+x, IntBytes)
	}
	return acc
}
