// Package comm is the transport layer of the stack: an SPMD runtime in
// which each rank of a distributed-memory machine runs as a goroutine and
// all interaction happens through explicit messages. It plays the role CMMD
// played on the CM-5 in the original paper.
//
// The layer is split along the Transport interface. Algorithm code
// (psort, field, pic, replicated, experiments, …) is written against
// Transport only; the goroutine-channel World here is one backend behind
// it, and decorators such as the Tracer wrap any backend without the
// algorithms noticing. Every collective (barrier, broadcast, reduce,
// allreduce, allgather/"global concatenate", all-to-many exchange) is a
// free function built from the point-to-point Send/Recv primitives — never
// a backend method — so the τ and μ terms of the two-level cost model
// accumulate exactly as the published complexity analysis predicts and a
// decorator observes collective traffic message by message.
//
// Simulated time: the sender charges τ + n·μ to its clock when a message of
// n bytes is posted; the receiver charges τ + n·μ and additionally advances
// to at least the sender's post-send clock, making message consumption
// causal. Execution time of a region is the maximum clock advance over
// ranks. All charges flow through the rank's machine.Clock (the Clock
// seam), so an alternative Clock implementation changes the notion of time
// without touching this package's protocols.
package comm

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"picpar/internal/machine"
	"picpar/internal/wire"
)

// Tag labels a message so that mismatched protocols fail loudly instead of
// silently mispairing messages.
type Tag int

// Well-known tags used by the collectives; application code should use tags
// >= TagUser.
const (
	tagBarrier Tag = -(iota + 1)
	tagBcast
	tagReduce
	tagGather
	tagAllgather
	tagAlltoMany
	tagScan
	tagExpose
	tagSystolic
)

// TagUser is the first tag value free for application use.
const TagUser Tag = 0

// Transport is the per-rank communication endpoint the algorithms are
// written against. It exposes exactly the primitives: identity, point-to-
// point messaging, the out-of-band Expose channel, and the cost-model
// charging surface. Collectives are free functions over Transport (Barrier,
// Bcast, Allgather, AllToMany, …), so a decorator wrapping Send/Recv sees
// every message a collective moves.
//
// A Transport is owned by one goroutine and must not be shared.
type Transport interface {
	// Rank returns this endpoint's id in [0, Size()).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// Send posts a message of nbytes modelled bytes to dst. The body may
	// be any value; ownership transfers with it, and the substrate does not
	// copy, so the sender must neither read nor mutate a sent body again.
	// Slice bodies travel boxed as *[]float64 or *[]int (wire.Box), and
	// their buffers are recycled through internal/wire by their last
	// holder: the receiver on an in-process backend, the TCP transport
	// itself once the body is encoded.
	Send(dst int, tag Tag, body any, nbytes int)
	// Recv blocks until a message with the given tag arrives from src and
	// returns its body and modelled size in bytes. Messages from src with
	// other tags are queued for later Recv calls, preserving per-(src,tag)
	// FIFO order.
	Recv(src int, tag Tag) (body any, nbytes int)
	// Expose publishes v and returns every rank's published value, indexed
	// by rank. It is an out-of-band measurement channel: the values do not
	// travel the modelled network, so only the two enclosing barriers are
	// charged. Use it for instrumentation (collecting timings and counters
	// that a real run would log locally and merge offline), never for
	// algorithm data.
	Expose(v any) []any
	// Compute charges n units of local computation (n·δ) to the clock and
	// the current phase.
	Compute(n int)
	// ComputeTime charges t simulated seconds of local computation directly.
	ComputeTime(t float64)
	// SetPhase selects the accounting phase for subsequent operations.
	SetPhase(p machine.Phase)
	// Clock returns this rank's clock — the seam through which every δ/τ/μ
	// charge flows.
	Clock() machine.Clock
	// Stats returns this rank's per-phase accounting ledger.
	Stats() *machine.Stats
}

type message struct {
	tag    Tag
	bytes  int
	sentAt float64 // sender's simulated clock after the send completed
	body   any
}

// World is the channel-backed Transport backend: a set of P ranks plus
// their mailboxes. Create one with NewWorld and execute SPMD programs with
// Run (or use the Launch convenience for the common case).
type World struct {
	P      int
	Params machine.Params

	// boxes[dst*P+src] is the FIFO channel carrying messages src→dst.
	boxes []chan message
	// scratch is the out-of-band publication area used by Expose; gate
	// orders its writes before its reads.
	scratch []any
	gate    *gate

	// watchdog, when positive, bounds how long a rank may block inside one
	// Send (mailbox full past DefaultMailboxDepth) or Recv before the rank
	// panics with a diagnostic naming who is blocked on which tag. Zero
	// (the default) disables the watchdog entirely.
	watchdog time.Duration
	// blocked[i] is what rank i is currently blocked on, for the watchdog's
	// deadlock report; guarded by mu.
	mu      sync.Mutex
	blocked []blockedOn

	// closed is set by Close; any subsequent Send/Recv panics with a typed
	// *TransportError wrapping ErrClosedWorld so a reliability layer knows
	// never to retry it (a retried send-to-closed-world would mask a
	// teardown bug).
	closed atomic.Bool

	// topo is the world's link set (NewFullMesh unless SetTopology replaced
	// it): a Send or Recv on an unlinked pair panics with a
	// *TransportError wrapping a *TopologyError. The goroutine backend has no
	// sockets to save, so enforcement here exists to make the channel world a
	// faithful rehearsal of a sparse TCP world — a protocol that crosses the
	// topology fails identically on both backends.
	topo *Topology
}

// DefaultMailboxDepth is the per-channel buffering. Deep enough that
// typical phase protocols never block on buffer space, small enough to
// surface deadlocks quickly in tests.
const DefaultMailboxDepth = 4096

// NewWorld creates a world of p ranks with the given machine parameters.
func NewWorld(p int, params machine.Params) *World {
	if p <= 0 {
		panic(fmt.Sprintf("comm: NewWorld with p=%d", p))
	}
	w := &World{P: p, Params: params, topo: NewFullMesh(p)}
	w.scratch = make([]any, p)
	w.gate = newGate(p)
	w.boxes = make([]chan message, p*p)
	for i := range w.boxes {
		w.boxes[i] = make(chan message, DefaultMailboxDepth)
	}
	w.blocked = make([]blockedOn, p)
	return w
}

// SetWatchdog arms the deadlock watchdog: any single Send or Recv that
// blocks longer than d panics with a diagnostic listing every blocked rank
// and the tag it is stuck on, instead of hanging the process. Every blocked
// rank trips its own watchdog, so Run's WaitGroup always drains and the
// first panic is re-raised on the caller. Call before Run; d <= 0 disables.
func (w *World) SetWatchdog(d time.Duration) { w.watchdog = d }

// SetTopology replaces the world's full-mesh link set with tp's (see
// Topology). Call before Run. The descriptor's size must match the world's.
func (w *World) SetTopology(tp *Topology) {
	if tp.Size() != w.P {
		panic(fmt.Sprintf("comm: topology %s is for p=%d, world has P=%d", tp.Name(), tp.Size(), w.P))
	}
	w.topo = tp
}

// Close marks the world shut down. Any later Send or Recv on one of its
// ranks panics with a *TransportError wrapping ErrClosedWorld — a typed,
// never-retried failure, so a rank outliving its world is diagnosed rather
// than masked. Launch closes its world when the program returns.
func (w *World) Close() {
	w.closed.Store(true)
	w.gate.abort()
}

// warnf emits configuration warnings; a package variable so tests can
// capture them. Default: stderr.
var warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// EnvWatchdog returns the watchdog duration configured in the
// PICPAR_WATCHDOG environment variable, or fallback when it is unset. The
// values "0" and "off" disable the watchdog. A malformed or negative value
// is rejected loudly — a warning naming the bad value, then the fallback —
// so a typo can never silently disarm (or rearm) deadlock detection. Test
// helpers use this so one knob tunes detection across every package.
func EnvWatchdog(fallback time.Duration) time.Duration {
	switch v := os.Getenv("PICPAR_WATCHDOG"); v {
	case "":
		return fallback
	case "0", "off":
		return 0
	default:
		d, err := time.ParseDuration(v)
		if err != nil {
			warnf("comm: PICPAR_WATCHDOG=%q is not a duration (%v); using fallback %v", v, err, fallback)
			return fallback
		}
		if d < 0 {
			warnf("comm: PICPAR_WATCHDOG=%q is negative; using fallback %v (use \"0\" or \"off\" to disable)", v, fallback)
			return fallback
		}
		return d
	}
}

// Launch runs fn as an SPMD program on p ranks of a fresh channel-backed
// world with the given machine parameters and returns the per-rank stats.
// It is the standard entry point for algorithm code, which needs no
// handle on the backend itself. The world is closed when the program
// returns, so a goroutine leaked past the run fails loudly with
// ErrClosedWorld instead of corrupting a later experiment.
func Launch(p int, params machine.Params, fn func(t Transport)) machine.WorldStats {
	w := NewWorld(p, params)
	defer w.Close()
	return w.Run(fn)
}

// Run executes fn on every rank concurrently and returns the per-rank stats
// ledgers once all ranks have returned. A panic on any rank is re-raised on
// the caller after all other ranks finish or block permanently; the runtime
// deadlock detector (or the watchdog, if armed) then identifies stuck
// protocols in tests.
func (w *World) Run(fn func(t Transport)) machine.WorldStats {
	return w.RunWrapped(nil, fn)
}

// RunWrapped is Run with a decorator: if wrap is non-nil, each rank's
// Transport is passed through wrap before fn sees it, so decorators such as
// the Tracer interpose on every rank uniformly.
func (w *World) RunWrapped(wrap func(Transport) Transport, fn func(t Transport)) machine.WorldStats {
	ranks := make([]*rank, w.P)
	for i := range ranks {
		r := &rank{world: w}
		r.core = newCore(r, i, w.P, w.Params, w.topo, &w.closed, machine.NewSimClock())
		ranks[i] = r
	}
	var wg sync.WaitGroup
	panics := make(chan *RankPanic, w.P)
	for _, r := range ranks {
		wg.Add(1)
		go func(r *rank) {
			defer wg.Done()
			if rp := runRank(r.id, r, wrap, fn); rp != nil {
				panics <- rp
			}
		}(r)
	}
	wg.Wait()
	select {
	case e := <-panics:
		panic(e)
	default:
	}
	ws := machine.WorldStats{Ranks: make([]machine.Stats, w.P)}
	for i, r := range ranks {
		ws.Ranks[i] = r.stats
	}
	return ws
}

// rank is the channel-backed link under the shared core: mailboxes are Go
// channels, Expose publications a shared scratch table.
type rank struct {
	core
	world *World
}

// blockedOn is what a rank is blocked on: a send to or receive from peer
// of tag; op is empty while the rank makes progress.
type blockedOn struct {
	op   string
	peer int
	tag  Tag
}

// block records what rank id is blocked on.
func (w *World) block(id int, on blockedOn) {
	w.mu.Lock()
	w.blocked[id] = on
	w.mu.Unlock()
}

// post enqueues m for dst, tripping the watchdog if the mailbox stays full
// (past DefaultMailboxDepth of buffering) longer than the deadline.
func (r *rank) post(dst int, m message) {
	box := r.world.boxes[dst*r.p+r.id]
	if r.world.watchdog <= 0 {
		box <- m
		return
	}
	select {
	case box <- m:
		return
	default:
	}
	r.world.block(r.id, blockedOn{"sending", dst, m.tag})
	select {
	case box <- m:
		r.world.block(r.id, blockedOn{})
	case <-r.arm(r.world.watchdog):
		panic(r.world.deadlockReport(r.id))
	}
}

// pull takes the next message off src's mailbox, tripping the watchdog if
// nothing arrives before the deadline.
func (r *rank) pull(src int, tag Tag) message {
	box := r.world.boxes[r.id*r.p+src]
	if r.world.watchdog <= 0 {
		return <-box
	}
	select {
	case m := <-box:
		return m
	default:
	}
	r.world.block(r.id, blockedOn{"receiving", src, tag})
	select {
	case m := <-box:
		r.world.block(r.id, blockedOn{})
		return m
	case <-r.arm(r.world.watchdog):
		panic(r.world.deadlockReport(r.id))
	}
}

// describe formats what rank id is blocked on.
func (on blockedOn) describe(id int) string {
	if on.op == "sending" {
		return fmt.Sprintf("rank %d blocked sending tag %d to rank %d (mailbox full at depth %d)",
			id, on.tag, on.peer, DefaultMailboxDepth)
	}
	return fmt.Sprintf("rank %d blocked receiving tag %d from rank %d", id, on.tag, on.peer)
}

// deadlockReport formats the watchdog diagnostic: the tripping rank's own
// blocking operation plus whatever every other rank is blocked on.
func (w *World) deadlockReport(self int) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "comm: deadlock watchdog fired after %v: %s", w.watchdog, w.blocked[self].describe(self))
	var others []string
	for i, on := range w.blocked {
		if i != self && on.op != "" {
			others = append(others, on.describe(i))
		}
	}
	if len(others) > 0 {
		fmt.Fprintf(&b, "; also blocked: %s", strings.Join(others, "; "))
	}
	return b.String()
}

// publish writes this rank's slot of the world's scratch table and reads
// the whole table once every rank has written.
func (r *rank) publish(v any) []any {
	w := r.world
	w.scratch[r.id] = v
	if !w.gate.wait() {
		panic(&TransportError{Op: "expose", Rank: r.id, Peer: r.id, Tag: tagExpose, Err: ErrClosedWorld})
	}
	return append([]any(nil), w.scratch...)
}

// RecvFloat64s receives a []float64 message.
func RecvFloat64s(t Transport, src int, tag Tag) []float64 {
	body, _ := t.Recv(src, tag)
	return wire.Unbox(body.(*[]float64))
}

// Float64Bytes is the modelled wire size of one float64.
const Float64Bytes = 8

// IntBytes is the modelled wire size of one integer index.
const IntBytes = 4

// SendFloat64s sends a []float64 with its natural wire size, boxed by
// wire.Box; data goes with the message.
func SendFloat64s(t Transport, dst int, tag Tag, data []float64) {
	t.Send(dst, tag, wire.Box(data), len(data)*Float64Bytes)
}
