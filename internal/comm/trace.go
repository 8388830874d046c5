// The tracing decorator transport: wraps any Transport and records, per
// rank, per accounting phase and per tag, the messages and modelled bytes
// flowing through Send/Recv. Because every collective is built from those
// two primitives, the tracer sees collective traffic message by message.

package comm

import (
	"sync"

	"picpar/internal/machine"
)

// TraceCounts is one bucket of traced traffic.
type TraceCounts struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
}

func (c *TraceCounts) add(o TraceCounts) {
	c.MsgsSent += o.MsgsSent
	c.BytesSent += o.BytesSent
	c.MsgsRecv += o.MsgsRecv
	c.BytesRecv += o.BytesRecv
}

// RankTrace is the traffic observed through one rank's traced transport,
// broken down by accounting phase, by message tag, and by peer rank (the
// link accounting the topology work reads: which rank pairs actually
// exchanged traffic).
type RankTrace struct {
	Phases [machine.NumPhases]TraceCounts
	Tags   map[Tag]TraceCounts
	Peers  map[int]TraceCounts
}

// Total sums the per-phase buckets.
func (rt RankTrace) Total() TraceCounts {
	var total TraceCounts
	for i := range rt.Phases {
		total.add(rt.Phases[i])
	}
	return total
}

// Tracer records traffic for every rank it wraps. Install it with
// World.RunWrapped(tracer.Wrap, fn). Self-sends and self-receives are not
// recorded, matching the Stats ledger (local delivery is free and
// unrecorded there too). Expose's internal barriers run on the backend
// below the decorator and are therefore not traced; Expose is out-of-band
// by contract.
type Tracer struct {
	mu    sync.Mutex
	ranks map[int]*RankTrace
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{ranks: make(map[int]*RankTrace)}
}

// Wrap decorates t; pass this method to World.RunWrapped.
func (tr *Tracer) Wrap(t Transport) Transport {
	return &tracedTransport{Transport: t, tracer: tr}
}

// Rank returns a copy of the traffic recorded for one rank (zero counts if
// the rank sent and received nothing).
func (tr *Tracer) Rank(id int) RankTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rt := tr.ranks[id]
	if rt == nil {
		return RankTrace{Tags: map[Tag]TraceCounts{}, Peers: map[int]TraceCounts{}}
	}
	out := RankTrace{
		Phases: rt.Phases,
		Tags:   make(map[Tag]TraceCounts, len(rt.Tags)),
		Peers:  make(map[int]TraceCounts, len(rt.Peers)),
	}
	for tag, c := range rt.Tags {
		out.Tags[tag] = c
	}
	for peer, c := range rt.Peers {
		out.Peers[peer] = c
	}
	return out
}

// Total aggregates all ranks' traffic.
func (tr *Tracer) Total() TraceCounts {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var total TraceCounts
	for _, rt := range tr.ranks {
		total.add(rt.Total())
	}
	return total
}

// PhaseTotals aggregates all ranks' traffic per accounting phase. The
// traffic regression gate snapshots this table into the bench JSON.
func (tr *Tracer) PhaseTotals() [machine.NumPhases]TraceCounts {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var totals [machine.NumPhases]TraceCounts
	for _, rt := range tr.ranks {
		for i := range rt.Phases {
			totals[i].add(rt.Phases[i])
		}
	}
	return totals
}

// Reset clears all recorded traffic.
func (tr *Tracer) Reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ranks = make(map[int]*RankTrace)
}

func (tr *Tracer) bucket(id int) *RankTrace {
	rt := tr.ranks[id]
	if rt == nil {
		rt = &RankTrace{Tags: make(map[Tag]TraceCounts), Peers: make(map[int]TraceCounts)}
		tr.ranks[id] = rt
	}
	return rt
}

func (tr *Tracer) recordSend(id, peer int, phase machine.Phase, tag Tag, nbytes int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rt := tr.bucket(id)
	rt.Phases[phase].MsgsSent++
	rt.Phases[phase].BytesSent += int64(nbytes)
	c := rt.Tags[tag]
	c.MsgsSent++
	c.BytesSent += int64(nbytes)
	rt.Tags[tag] = c
	pc := rt.Peers[peer]
	pc.MsgsSent++
	pc.BytesSent += int64(nbytes)
	rt.Peers[peer] = pc
}

func (tr *Tracer) recordRecv(id, peer int, phase machine.Phase, tag Tag, nbytes int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rt := tr.bucket(id)
	rt.Phases[phase].MsgsRecv++
	rt.Phases[phase].BytesRecv += int64(nbytes)
	c := rt.Tags[tag]
	c.MsgsRecv++
	c.BytesRecv += int64(nbytes)
	rt.Tags[tag] = c
	pc := rt.Peers[peer]
	pc.MsgsRecv++
	pc.BytesRecv += int64(nbytes)
	rt.Peers[peer] = pc
}

// tracedTransport interposes on Send/Recv and delegates everything else to
// the wrapped Transport.
type tracedTransport struct {
	Transport
	tracer *Tracer
}

// Unwrap implements Wrapper, so capabilities of layers below (the socket
// count SocketCount reads) stay reachable through a tracing wrapper.
func (t *tracedTransport) Unwrap() Transport { return t.Transport }

func (t *tracedTransport) Send(dst int, tag Tag, body any, nbytes int) {
	if dst != t.Rank() {
		t.tracer.recordSend(t.Rank(), dst, t.Stats().CurrentPhase(), tag, nbytes)
	}
	t.Transport.Send(dst, tag, body, nbytes)
}

func (t *tracedTransport) Recv(src int, tag Tag) (any, int) {
	body, nbytes := t.Transport.Recv(src, tag)
	if src != t.Rank() {
		t.tracer.recordRecv(t.Rank(), src, t.Stats().CurrentPhase(), tag, nbytes)
	}
	return body, nbytes
}
