// The rank core: the single audit point of the two-level cost model. Every
// backend embeds one core by value and supplies a link; the core owns
// everything a Transport does that is not "how bytes move" — identity, the
// clock and stats ledger, argument/closed-world/topology validation, the
// free self-send bypass, per-source tag matching over the pending queues,
// the one send and one receive charging sequence, and the two charged
// barriers of Expose.

package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"picpar/internal/machine"
)

// link is what a backend contributes to its core. The core calls it from
// the rank's own goroutine only, with arguments it has already validated;
// a link failure (watchdog overrun, dead peer or host) is a typed panic.
type link interface {
	// post moves one already-charged message toward dst, a valid, linked
	// rank other than this one.
	post(dst int, m message)
	// pull blocks for the next message from src (valid, linked, not this
	// rank) in arrival order, whatever its tag; tag names the awaited one in
	// diagnostics only.
	pull(src int, tag Tag) message
	// publish is the uncharged half of Expose: it runs between the two
	// charged barriers and returns every rank's published value by rank.
	publish(v any) []any
}

// core is the shared state of one rank endpoint. Owned by one goroutine,
// like the Transport it implements.
type core struct {
	id, p  int
	params machine.Params
	// topo is the world's link set: which rank pairs may exchange messages.
	topo *Topology
	// isClosed is the owning world's (or endpoint's) teardown flag.
	isClosed *atomic.Bool

	clock machine.Clock
	stats machine.Stats
	// pending holds messages pulled while looking for a different tag,
	// plus self-sends; indexed by source rank.
	pending [][]message

	link  link
	coll  collScratch // the bookkeeping this rank's collectives return
	timer *time.Timer // the watchdog's, made when first armed
}

// collScratch is the bookkeeping one rank's collectives return, each valid
// until that rank's next call of the same collective.
type collScratch struct {
	table, counts []int       // AllgatherInts; the counts exchanges
	recv, sys     [][]float64 // AllToManyFloat64s, the systolic exchange
	split         [][]float64 // AllToManySparseFloat64s' near and far sends
	splitCounts   []int       // and their counts
	// one holds the value ExposeMaxFloat64 and ExposeSumFloat64 publish,
	// two buffers used in turn (see Transport.Expose); ones counts them.
	one  [2][]float64
	ones int
}

// newCore builds the core of rank id of p over link l; isClosed is the
// owning world's teardown flag.
func newCore(l link, id, p int, params machine.Params, topo *Topology, isClosed *atomic.Bool, clock machine.Clock) core {
	return core{id: id, p: p, params: params, topo: topo, isClosed: isClosed,
		clock: clock, pending: make([][]message, p), link: l}
}

// arm restarts the rank's one watchdog timer for d and returns its channel
// (nil, which never fires, when d <= 0). The timer runs on after a wait
// ends; one that has fired since is replaced rather than drained, so a
// late tick can never reach a later wait.
func (c *core) arm(d time.Duration) <-chan time.Time {
	if d <= 0 {
		return nil
	}
	if c.timer == nil || !c.timer.Stop() {
		c.timer = time.NewTimer(d)
	} else {
		c.timer.Reset(d)
	}
	return c.timer.C
}

// Rank implements Transport.
func (c *core) Rank() int { return c.id }

// Size implements Transport.
func (c *core) Size() int { return c.p }

// Clock implements Transport.
func (c *core) Clock() machine.Clock { return c.clock }

// Stats implements Transport.
func (c *core) Stats() *machine.Stats { return &c.stats }

// SetPhase implements Transport.
func (c *core) SetPhase(p machine.Phase) { c.stats.SetPhase(p) }

// Compute implements Transport.
func (c *core) Compute(n int) { c.ComputeRepeat(n, 1) }

// ComputeRepeat implements Transport.
func (c *core) ComputeRepeat(n, times int) {
	if n <= 0 {
		return
	}
	cost := c.params.ComputeCost(n)
	for ; times > 0; times-- {
		c.clock.Advance(cost)
		c.stats.RecordCompute(cost)
	}
}

// ComputeTime implements Transport.
func (c *core) ComputeTime(t float64) {
	if t <= 0 {
		return
	}
	c.clock.Advance(t)
	c.stats.RecordCompute(t)
}

// validate rejects structural misuse — a world already torn down, a rank
// out of range, a pair with no link under the topology — with a typed
// *TransportError that no reliability layer will retry. Every backend
// validates in this order, before any message is matched or moved.
func (c *core) validate(op string, peer int, tag Tag) {
	var err error
	switch {
	case c.isClosed.Load():
		err = ErrClosedWorld
	case peer < 0 || peer >= c.p:
		err = fmt.Errorf("invalid rank %d (P=%d)", peer, c.p)
	case !c.topo.Connected(c.id, peer):
		err = c.topo.errOutOf(c.id, peer)
	default:
		return
	}
	panic(&TransportError{Op: op, Rank: c.id, Peer: peer, Tag: tag, Err: err})
}

// deliveryPanic raises the *DeliveryError a link reports when the exchange
// with peer failed under it (dead peer, dead host, failed write).
func (c *core) deliveryPanic(peer int, tag Tag, reason string) {
	panic(&DeliveryError{Rank: c.id, Peer: peer, Tag: tag, Phase: c.stats.CurrentPhase(), Reason: reason})
}

// Send implements Transport: the sender charges τ + n·μ, then the link
// carries the message stamped with the post-send clock.
func (c *core) Send(dst int, tag Tag, body any, nbytes int) {
	c.validate("send", dst, tag)
	if dst == c.id {
		// Self-sends bypass the network: no τ/μ charge, matching the
		// model where local data movement is part of computation.
		c.pending[c.id] = append(c.pending[c.id], message{tag: tag, bytes: nbytes, sentAt: c.clock.Now(), body: body})
		return
	}
	cost := c.params.MsgCost(nbytes)
	c.clock.Advance(cost)
	c.stats.RecordSend(nbytes, cost)
	c.link.post(dst, message{tag: tag, bytes: nbytes, sentAt: c.clock.Now(), body: body})
}

// Recv implements Transport: messages already pulled off the link are
// matched first; otherwise the link is drained, queueing other tags, until
// the awaited one arrives. The receiver advances to the sender's post-send
// clock (causality), then charges τ + n·μ.
func (c *core) Recv(src int, tag Tag) (any, int) {
	c.validate("recv", src, tag)
	m, ok := c.takePending(src, tag)
	if !ok {
		if src == c.id {
			panic(fmt.Sprintf("comm: rank %d self-recv tag %d with no matching self-send", c.id, tag))
		}
		for m = c.link.pull(src, tag); m.tag != tag; m = c.link.pull(src, tag) {
			c.pending[src] = append(c.pending[src], m)
		}
	}
	if src != c.id { // local delivery is free
		cost := c.params.MsgCost(m.bytes)
		c.clock.AdvanceTo(m.sentAt)
		c.clock.Advance(cost)
		c.stats.RecordRecv(m.bytes, cost)
	}
	return m.body, m.bytes
}

// takePending removes and returns the oldest queued message from src with
// the given tag, preserving per-(src, tag) FIFO order.
func (c *core) takePending(src int, tag Tag) (message, bool) {
	q := c.pending[src]
	for i := range q {
		if q[i].tag == tag {
			m := q[i]
			c.pending[src] = append(q[:i], q[i+1:]...)
			return m, true
		}
	}
	return message{}, false
}

// Expose implements Transport. The two barriers are the only charged part
// and run on the core directly, so a decorator wrapping the transport does
// not observe them (Expose is out-of-band by contract).
func (c *core) Expose(v any) []any {
	barrier(c, tagExpose) // all ranks inside Expose; previous round fully read
	out := c.link.publish(v)
	barrier(c, tagExpose) // all reads complete before anyone publishes again
	return out
}

// runRank is the per-rank run harness every launcher shares: decorate t
// with wrap (nil: none), run fn, and return fn's panic — typed transport
// panics included — as a *RankPanic (nil on a clean return).
func runRank(id int, t Transport, wrap func(Transport) Transport, fn func(Transport)) (rp *RankPanic) {
	defer func() {
		if e := recover(); e != nil {
			rp = &RankPanic{Rank: id, Value: e}
		}
	}()
	if wrap != nil {
		t = wrap(t)
	}
	fn(t)
	return nil
}

// gate is a reusable in-process barrier over n rank goroutines sharing one
// Expose scratch table, abortable so a crashed sibling or a torn-down
// world can never strand a rank inside it. It charges nothing: it orders
// the publications between Expose's two charged barriers.
type gate struct {
	mu      sync.Mutex
	cond    sync.Cond
	n       int
	count   int
	round   uint64
	aborted bool
}

func newGate(n int) *gate {
	g := &gate{n: n}
	g.cond.L = &g.mu
	return g
}

// wait blocks until all n participants arrive (true) or the gate is
// aborted first (false).
func (g *gate) wait() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	round := g.round
	if g.count++; g.count == g.n {
		g.count = 0
		g.round++
		g.cond.Broadcast()
	}
	for round == g.round && !g.aborted {
		g.cond.Wait()
	}
	return round != g.round
}

// abort releases every current and future waiter with false.
func (g *gate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.mu.Unlock()
	g.cond.Broadcast()
}
