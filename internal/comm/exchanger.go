// Topology-native all-to-many exchange. The classic AllToMany (collectives.go)
// posts directly to every destination — an any-to-any assumption the sparse
// topologies cannot honour. This file provides the alternatives, and the
// Exchanger through which psort and pic select one:
//
//   - AllToManySystolicFloat64s: Towards-Exascale-MD-style systolic pulse.
//     All payloads travel the ±1 ring links in exactly p−1 deterministic
//     pulses, each rank forwarding a single combined frame to its successor.
//     Ring-legal, so it runs under every topology (±1 is in the collective
//     skeleton).
//   - ExchangeCountsSparse / AllToManySparseFloat64s: the hybrid. Payloads
//     between linked ranks keep the classic schedule; the rest ride one
//     systolic relay pass that exists only when the traffic table shows
//     unlinked pairs exchanging data.
//
// Determinism: the systolic pulse schedule is data-independent — every rank
// sends exactly one frame per pulse, empty or not, so the message count and
// the receive order (and hence the simulated clock and the physics
// fingerprint) depend only on p, never on the payload distribution.

package comm

import (
	"fmt"
	"sort"

	"picpar/internal/wire"
)

// Exchanger selects the protocol of an all-to-many redistribution — the
// traffic-table exchange plus the payload exchange — so psort and pic run
// a topology-native protocol without knowing its schedule. A nil *Exchanger
// is the classic pairwise protocol: Exchange is nil-safe, which keeps that
// dispatch in one place.
type Exchanger struct {
	// tp is the sparse topology the hybrid protocol runs over; nil selects
	// the systolic ring pulse.
	tp *Topology
}

// NewSystolicExchanger returns the ring-pulse protocol: classic counts (the
// allgather is itself a ring protocol, so it is legal on every topology) +
// AllToManySystolicFloat64s payloads.
func NewSystolicExchanger() *Exchanger { return &Exchanger{} }

// NewSparseExchanger returns the hybrid protocol over tp: stencil-direct
// payloads on the classic schedule plus a systolic relay pass that only
// exists on iterations whose traffic table shows unlinked pairs exchanging
// data. This is the steady-state protocol of the neighbor-sparse topology:
// redistribution usually moves particles between adjacent partitions, but a
// cost-weighted repartition may decouple the particle and mesh alignments
// arbitrarily, and correctness cannot hinge on a locality heuristic.
func NewSparseExchanger(tp *Topology) *Exchanger {
	if tp == nil {
		panic("comm: NewSparseExchanger(nil)")
	}
	return &Exchanger{tp: tp}
}

// Exchange runs both halves of the redistribution: sendCounts[d] elements
// of send[d] go to rank d. Returns the received slices indexed by source,
// in a table that is the rank's scratch (valid until its next exchange);
// recv[self] may alias send[self].
func (e *Exchanger) Exchange(t Transport, send [][]float64, sendCounts []int) [][]float64 {
	switch {
	case e == nil:
		return AllToManyFloat64s(t, send, ExchangeCounts(t, sendCounts))
	case e.tp == nil:
		return AllToManySystolicFloat64s(t, send, ExchangeCounts(t, sendCounts))
	}
	recvCounts, anyFar := ExchangeCountsSparse(t, e.tp, sendCounts)
	return AllToManySparseFloat64s(t, e.tp, send, recvCounts, anyFar)
}

// ExchangeCountsSparse is ExchangeCounts with a far-traffic verdict: it runs
// the identical counts allgather (same schedule, same modelled charges) and
// additionally scans the full traffic table — which the allgather already
// delivered to every rank — for any nonzero payload between ranks that own
// no link under tp. The verdict is computed from global data, so every rank
// reaches the same answer with zero extra communication; it tells the
// payload exchange whether the systolic relay pass is needed at all.
// recvCounts is the rank's scratch, valid until its next counts exchange.
func ExchangeCountsSparse(t Transport, tp *Topology, sendCounts []int) (recvCounts []int, anyFar bool) {
	p := t.Size()
	if len(sendCounts) != p {
		panic(fmt.Sprintf("comm: ExchangeCountsSparse len=%d want P=%d", len(sendCounts), p))
	}
	if tp.Size() != p {
		panic(fmt.Sprintf("comm: ExchangeCountsSparse topology %s is for p=%d, world has P=%d",
			tp.Name(), tp.Size(), p))
	}
	table := AllgatherInts(t, sendCounts)
	recvCounts = countsTo(t, table)
scan:
	for s := 0; s < p; s++ {
		for d := 0; d < p; d++ {
			if s != d && table[s*p+d] > 0 && !tp.Connected(s, d) {
				anyFar = true
				break scan
			}
		}
	}
	return recvCounts, anyFar
}

// AllToManySparseFloat64s is the hybrid payload exchange for sparse
// topologies whose traffic is usually — but not provably — local: payloads
// between linked ranks travel the classic staggered pairwise schedule
// (byte-identical messages and charges to the full-mesh protocol), and
// payloads between unlinked ranks ride one systolic relay pass over the ±1
// ring. anyFar must be the globally agreed verdict from
// ExchangeCountsSparse: when false the relay pass is skipped entirely — no
// rank sends one extra message and the exchange is indistinguishable from
// the any-to-any protocol; when true every rank joins the p−1 relay pulses,
// empty-handed or not.
func AllToManySparseFloat64s(t Transport, tp *Topology, send [][]float64, recvCounts []int, anyFar bool) [][]float64 {
	if !anyFar {
		return allToManyLinked(t, tp, send, recvCounts)
	}
	p := t.Size()
	id := t.Rank()
	if len(send) != p || len(recvCounts) != p {
		panic(fmt.Sprintf("comm: AllToManySparseFloat64s len(send)=%d len(recvCounts)=%d want P=%d",
			len(send), len(recvCounts), p))
	}
	c := &endpointOf(t).coll
	c.split, c.splitCounts = cleared(c.split, 2*p), cleared(c.splitCounts, 2*p)
	nearSend, farSend, nearCounts, farCounts := c.split[:p], c.split[p:], c.splitCounts[:p], c.splitCounts[p:]
	for q := 0; q < p; q++ {
		if q == id || tp.Connected(id, q) {
			nearSend[q] = send[q]
			nearCounts[q] = recvCounts[q]
		} else {
			farSend[q] = send[q]
			farCounts[q] = recvCounts[q]
		}
	}
	recv := AllToManyFloat64s(t, nearSend, nearCounts)
	farRecv := AllToManySystolicFloat64s(t, farSend, farCounts)
	for s := 0; s < p; s++ {
		if s != id && farRecv[s] != nil {
			recv[s] = farRecv[s]
		}
	}
	return recv
}

// allToManyLinked is the pairwise payload exchange with the locality
// contract enforced: every nonzero send must target a neighbor under tp — a
// protocol that silently assumed any-to-any reach fails with the typed
// out-of-topology error. The schedule is the classic staggered exchange —
// empty sends are skipped there, so when the contract holds the charges are
// identical to AllToManyFloat64s on a full mesh.
func allToManyLinked(t Transport, tp *Topology, send [][]float64, recvCounts []int) [][]float64 {
	id := t.Rank()
	for d := range send {
		if len(send[d]) > 0 && d != id && !tp.Connected(id, d) {
			panic(&TransportError{Op: "send", Rank: id, Peer: d, Tag: tagAlltoMany,
				Err: tp.errOutOf(id, d)})
		}
	}
	return AllToManyFloat64s(t, send, recvCounts)
}

// systolicItem is one in-flight payload during the ring pulse.
type systolicItem struct {
	origin int
	dest   int
	data   []float64
}

// AllToManySystolicFloat64s performs the all-to-many exchange as a systolic
// ring pulse: p−1 steps, each sending exactly ONE combined frame to
// (id+1) mod p and receiving one from (id−1+p) mod p. The frame carries
// every payload this rank still holds for other ranks, each stamped with
// its origin and destination; the receiver keeps what is addressed to it
// and forwards the rest on the next pulse. After p−1 pulses every payload
// has visited its destination (ring distance ≤ p−1), so no hold remains.
//
// An empty frame is still sent — one header float, τ + 8·μ — keeping the
// pulse schedule data-independent: the message count is exactly p·(p−1)
// regardless of the traffic pattern, the price of running an arbitrary
// exchange over ±1 links only.
//
// recv[self] aliases send[self]; received sizes are validated against
// recvCounts exactly like the classic exchange. The recv table is the
// rank's scratch, valid until its next systolic exchange.
func AllToManySystolicFloat64s(t Transport, send [][]float64, recvCounts []int) [][]float64 {
	p := t.Size()
	id := t.Rank()
	if len(send) != p || len(recvCounts) != p {
		panic(fmt.Sprintf("comm: systolic len(send)=%d len(recvCounts)=%d want P=%d",
			len(send), len(recvCounts), p))
	}
	c := endpointOf(t)
	recv := cleared(c.coll.sys, p)
	c.coll.sys = recv
	if len(send[id]) > 0 {
		recv[id] = send[id]
	}
	if p == 1 {
		return recv
	}
	next := (id + 1) % p
	prev := (id - 1 + p) % p

	// Hold the outgoing payloads in increasing ring-distance order: the
	// nearest destination leaves the hold first, so every item is forwarded
	// the minimal number of times and delivery order at each receiver is the
	// same on every rank count.
	hold := make([]systolicItem, 0, p-1)
	for s := 1; s < p; s++ {
		dst := (id + s) % p
		if len(send[dst]) > 0 {
			hold = append(hold, systolicItem{origin: id, dest: dst, data: send[dst]})
		}
	}

	for pulse := 0; pulse < p-1; pulse++ {
		// Encode the entire hold into one frame:
		// [count; per item: origin, dest, len, data…].
		n := 1
		for i := range hold {
			n += 3 + len(hold[i].data)
		}
		frame := wire.Get(n)[:0]
		frame = append(frame, float64(len(hold)))
		for i := range hold {
			it := &hold[i]
			frame = append(frame, float64(it.origin), float64(it.dest), float64(len(it.data)))
			frame = append(frame, it.data...)
			// The payload is copied into the frame and never referenced
			// again: a forwarded one came out of the wire pool when the
			// previous pulse was unpacked, and this rank's own is a sent
			// body, which its caller gave up with the exchange.
			wire.Put(it.data)
		}
		t.Send(next, tagSystolic, wire.Box(frame), len(frame)*Float64Bytes)
		hold = hold[:0]

		body, _ := t.Recv(prev, tagSystolic)
		in := wire.Unbox(body.(*[]float64))
		k := int(in[0])
		off := 1
		for i := 0; i < k; i++ {
			origin, dest, ln := int(in[off]), int(in[off+1]), int(in[off+2])
			off += 3
			data := in[off : off+ln]
			off += ln
			if dest == id {
				buf := append(wire.Get(ln)[:0], data...)
				if recv[origin] != nil {
					panic(fmt.Sprintf("comm: systolic duplicate payload from %d at rank %d", origin, id))
				}
				recv[origin] = buf
			} else {
				buf := append(wire.Get(ln)[:0], data...)
				hold = append(hold, systolicItem{origin: origin, dest: dest, data: buf})
			}
		}
		wire.Put(in)
		// Keep the forwarding order deterministic: nearest destination first
		// relative to this rank, origin as tie-break.
		sort.Slice(hold, func(a, b int) bool {
			da := (hold[a].dest - id + p) % p
			db := (hold[b].dest - id + p) % p
			if da != db {
				return da < db
			}
			return hold[a].origin < hold[b].origin
		})
	}
	if len(hold) != 0 {
		panic(fmt.Sprintf("comm: systolic exchange left %d undelivered payloads at rank %d", len(hold), id))
	}
	for s := 0; s < p; s++ {
		if got := len(recv[s]); got != recvCounts[s] {
			panic(fmt.Sprintf("comm: systolic size mismatch from %d: got %d want %d", s, got, recvCounts[s]))
		}
	}
	return recv
}
