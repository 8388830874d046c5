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
// internal barriers run on the core, below any decorator, under the
// dedicated tagExpose, so a decorator never sees or counts them as
// application barrier traffic.
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
	val := body
	if vr != 0 {
		// Parent in the binomial tree: clear the highest set bit.
		parent := ((vr - hb) + root) % p
		val, _ = t.Recv(parent, tagBcast)
		if h, ok := val.(*[]float64); ok {
			val = wire.Unbox(h)
		}
	}
	// Children of vr are vr+2^k for every 2^k above vr's highest set bit.
	for mask := nextPow2(p) >> 1; mask > hb; mask >>= 1 {
		if child := vr + mask; child < p {
			send := val
			if v, ok := val.([]float64); ok {
				send = wire.Box(append(wire.Get(len(v)), v...))
			}
			t.Send((child+root)%p, tagBcast, send, nbytes)
		}
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

// AllreduceSumInt returns the sum of x over all ranks, on all ranks.
func AllreduceSumInt(t Transport, x int) int {
	v := AllreduceFloat64(t, float64(x), func(a, b float64) float64 { return a + b })
	return int(v + 0.5)
}

// ring is the allgather's ring: p−1 steps each forwarding one block to
// the next rank, so the cost is (p−1)·(τ + |block|·μ) — the
// global-concatenate term of the paper's analysis. h carries this rank's
// block; out, which has room for p of them, receives them in rank order.
// Returns the boxed block the last step delivered, for the caller to Put.
func ring[E any](t Transport, h *[]E, out []E, elemBytes int) *[]E {
	p, id := t.Size(), t.Rank()
	n := len(*h)
	copy(out[id*n:], *h)
	owner := id
	for step := 0; step < p-1; step++ {
		t.Send((id+1)%p, tagAllgather, h, n*elemBytes)
		body, _ := t.Recv((id-1+p)%p, tagAllgather)
		h = body.(*[]E)
		owner = (owner - 1 + p) % p
		copy(out[owner*n:], *h)
	}
	return h
}

// AllgatherInts performs a "global concatenation" of fixed-size int
// blocks: every rank receives every rank's block in rank order. The result
// is the rank's own scratch, valid until its next call; the ring's blocks
// are pooled, so a warm call allocates nothing.
func AllgatherInts(t Transport, block []int) []int {
	c := endpointOf(t)
	c.coll.table = cleared(c.coll.table, len(block)*t.Size())
	h := wire.Box(append(wire.GetInts(len(block)), block...))
	wire.PutInts(wire.Unbox(ring(t, h, c.coll.table, IntBytes)))
	return c.coll.table
}

// AllgatherFloat64s gathers fixed-size float64 blocks from all ranks. It
// performs exactly the same ring exchange as AllgatherInts (so the
// simulated cost is identical) but draws both its ring buffer and the
// result from the wire pool, so a warm call allocates nothing. The caller
// owns the result and returns it with wire.Put once it is done with it.
func AllgatherFloat64s(t Transport, block []float64) []float64 {
	n := len(block) * t.Size()
	out := wire.Get(n)[:n]
	h := wire.Box(append(wire.Get(len(block)), block...))
	wire.Put(wire.Unbox(ring(t, h, out, Float64Bytes)))
	return out
}

// ExchangeCounts distributes an all-to-many traffic table: sendCounts[d] is
// the number of elements this rank will send to rank d. Returns
// recvCounts[s], the number of elements rank s will send here, in the
// rank's scratch (valid until its next counts exchange). This is the
// "global concatenate the myId row of table" step of the paper's
// redistribution algorithm (Figure 12, line 15).
func ExchangeCounts(t Transport, sendCounts []int) (recvCounts []int) {
	p := t.Size()
	if len(sendCounts) != p {
		panic(fmt.Sprintf("comm: ExchangeCounts len=%d want P=%d", len(sendCounts), p))
	}
	return countsTo(t, AllgatherInts(t, sendCounts))
}

// countsTo returns this rank's column of the traffic table, in the rank's
// scratch.
func countsTo(t Transport, table []int) []int {
	p, c := t.Size(), endpointOf(t)
	c.coll.counts = cleared(c.coll.counts, p)
	for s := range c.coll.counts {
		c.coll.counts[s] = table[s*p+t.Rank()]
	}
	return c.coll.counts
}

// AllToManyFloat64s performs the paper's all-to-many exchange: send[d]
// goes to rank d. Empty slices send nothing — no τ is charged for absent
// messages, matching the paper's "number of messages" accounting.
// recvCounts must come from ExchangeCounts or equivalent global knowledge.
// Returns the received slices indexed by source rank, in a table that is
// the rank's scratch (valid until its next call); recv[self] aliases
// send[self].
//
// The schedule is the classic staggered pairwise exchange: at step s, send
// to (id+s) mod p and receive from (id−s) mod p.
func AllToManyFloat64s(t Transport, send [][]float64, recvCounts []int) [][]float64 {
	p := t.Size()
	id := t.Rank()
	if len(send) != p || len(recvCounts) != p {
		panic(fmt.Sprintf("comm: AllToMany len(send)=%d len(recvCounts)=%d want P=%d",
			len(send), len(recvCounts), p))
	}
	c := endpointOf(t)
	recv := cleared(c.coll.recv, p)
	c.coll.recv = recv
	if len(send[id]) > 0 {
		recv[id] = send[id]
	}
	for s := 1; s < p; s++ {
		dst := (id + s) % p
		src := (id - s + p) % p
		if len(send[dst]) > 0 {
			t.Send(dst, tagAlltoMany, wire.Box(send[dst]), len(send[dst])*Float64Bytes)
		}
		if recvCounts[src] > 0 {
			body, _ := t.Recv(src, tagAlltoMany)
			recv[src] = wire.Unbox(body.(*[]float64))
			if len(recv[src]) != recvCounts[src] {
				panic(fmt.Sprintf("comm: all-to-many size mismatch from %d: got %d want %d",
					src, len(recv[src]), recvCounts[src]))
			}
		}
	}
	return recv
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

func (c *core) endpoint() *core { return c }

// endpointOf returns the core under t's decorators, whose scratch the
// collectives return, or — behind one that does not unwrap — a fresh core,
// whose empty scratch makes the call allocate its result.
func endpointOf(t Transport) *core {
	for {
		switch v := t.(type) {
		case interface{ endpoint() *core }:
			return v.endpoint()
		case Wrapper:
			t = v.Unwrap()
		default:
			return new(core)
		}
	}
}

// cleared returns s as n zero elements, reallocating only if it is short.
func cleared[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}
