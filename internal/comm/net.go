// The real-network Transport backend: one OS process per rank, TCP sockets
// between them, the same SPMD rank functions and collectives as the
// goroutine World. This is the ROADMAP "real-network transport" item, built
// as a robustness exercise: every seam of the connection lifecycle is
// supervised so that a killed, wedged or misconfigured peer surfaces as a
// typed diagnostic within a bounded timeout instead of a hang.
//
// Lifecycle of a rank endpoint (NetRank):
//
//  1. Rendezvous — dial the coordinator (capped-backoff retry with jitter),
//     register rank identity and mesh listen address, receive the world
//     membership table. Mismatched world size, duplicate ranks and codec
//     version skew are rejected here, before any data can flow.
//  2. Mesh — every linked pair of ranks (every pair, on the full mesh)
//     shares one TCP connection: rank j dials its linked i < j and accepts
//     from its linked k > j. Each connection is verified by a peer
//     handshake carrying the coordinator-issued world id and both rank
//     identities, so a stray or crossed connection can never join.
//  3. Steady state — frames (netcodec.go) carry the modelled byte size and
//     the sender's simulated clock, so the cost model charges exactly what
//     the goroutine backend charges and experiment outputs stay
//     byte-identical across processes. A per-connection reader goroutine
//     demultiplexes data, out-of-band Expose values and heartbeats; a
//     heartbeat loop beacons liveness; read deadlines bound how long a
//     silent peer goes unnoticed.
//  4. Teardown — a clean exit announces itself with a goodbye frame, then
//     drains (keeps reading) until every peer has said goodbye or the
//     drain timeout passes, so no close can race in-flight frames into a
//     TCP reset. A crashed rank (panic, kill) closes abruptly: its peers
//     see EOF within milliseconds and fail their next Recv with a
//     *DeliveryError naming rank, peer, tag and phase.
//
// Failure taxonomy (see DESIGN.md "Error taxonomy"): a vanished or wedged
// peer is a *DeliveryError (the network failed the program); protocol
// misuse, codec version skew and operations on a torn-down endpoint are
// *TransportError (the program is broken); both surface as panics exactly
// like the goroutine backend's, and NetRank converts them into a *RankPanic
// error for the process's main function to report.
package comm

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"picpar/internal/machine"
	"picpar/internal/wire"
)

// NetConfig describes one rank's endpoint of a TCP-backed world. Zero
// duration fields take the documented defaults; Coordinator, Rank and Size
// are mandatory.
type NetConfig struct {
	// Coordinator is the rendezvous address (host:port) every rank reports
	// to before the mesh is built.
	Coordinator string
	// Rank and Size are this process's SPMD identity.
	Rank, Size int
	// ListenAddr is the address the rank's mesh listener binds; default
	// "127.0.0.1:0" (loopback, kernel-chosen port). Multi-host runs set it
	// to an address the other hosts can reach.
	ListenAddr string
	// Params are the cost-model constants, identical on every rank.
	Params machine.Params
	// WallClock switches the rank's clock from the simulated cost model to
	// real elapsed time (machine.WallClock), turning the simulator into an
	// actual parallel runtime. Defaults to off; simulated goldens only hold
	// with it off.
	WallClock bool
	// Watchdog, when positive, bounds how long a Recv may block without any
	// traffic from the awaited peer before the rank panics with a
	// diagnostic (the net analogue of World.SetWatchdog).
	Watchdog time.Duration
	// Topology is the world's link set: the mesh assembly dials only
	// topology peers (O(P·k) sockets for a sparse descriptor, O(P²) for the
	// full mesh) and a Send/Recv on an unlinked pair is a typed
	// *TransportError wrapping *TopologyError. Every rank of a world must
	// present the same descriptor — the rendezvous pins its digest and
	// rejects mismatches. Unset, NetRank installs NewFullMesh(Size).
	Topology *Topology

	// DialTimeout bounds one dial attempt (default 2s); DialAttempts is the
	// retry budget (default 8) with exponential backoff from DialBackoff
	// (default 100ms) capped at dialMaxBackoff, ±20% jitter.
	DialTimeout  time.Duration
	DialAttempts int
	DialBackoff  time.Duration
	// RendezvousTimeout bounds the whole rendezvous and mesh handshake
	// (default 30s).
	RendezvousTimeout time.Duration
	// HeartbeatInterval is the liveness beacon period (default 250ms);
	// HeartbeatTimeout is how long a connection may stay silent before the
	// peer is declared lost (default 10s). A crashed process is usually
	// detected much faster via EOF; the heartbeat catches wedged-but-alive
	// peers.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// DrainTimeout bounds the clean-teardown drain (default 5s).
	DrainTimeout time.Duration

	// RejoinAttempts, when positive, makes the rank elastic: a run that dies
	// with a *DeliveryError (the world collapsed under it) rejoins through
	// the rendezvous and runs fn again, at most RejoinAttempts runs in all.
	// The coordinator must then be serving ServeElastic rounds. Rejoins back
	// off like the peer dial: exponential from RejoinBackoff (default 250ms)
	// capped at RejoinMaxBackoff (default 4s), ±20% jitter. Zero (the
	// default) fails on the first dead world.
	RejoinAttempts   int
	RejoinBackoff    time.Duration
	RejoinMaxBackoff time.Duration
}

// Fixed endpoint timeouts: the cap on the peer-dial backoff and the bound
// on one frame write.
const (
	dialMaxBackoff = 2 * time.Second
	writeTimeout   = 10 * time.Second
)

// withNetDefaults fills zero fields with the documented defaults.
func (c NetConfig) withNetDefaults() NetConfig {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.DialAttempts <= 0 {
		c.DialAttempts = 8
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 100 * time.Millisecond
	}
	if c.RendezvousTimeout <= 0 {
		c.RendezvousTimeout = 30 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.RejoinBackoff <= 0 {
		c.RejoinBackoff = 250 * time.Millisecond
	}
	if c.RejoinMaxBackoff <= 0 {
		c.RejoinMaxBackoff = 4 * time.Second
	}
	return c
}

// NetRank joins the world described by cfg, runs fn as this process's rank
// (wrapped by wrap if non-nil, with World.RunWrapped semantics), and tears
// the endpoint down — gracefully after a normal return, abruptly after a
// panic so peers fail fast. A panic inside fn (including the typed
// *DeliveryError and *TransportError panics of the transport) is returned
// as a *RankPanic error, mirroring World.Run's re-raise.
//
// With cfg.RejoinAttempts > 0 the rank is elastic: when the world dies
// under fn — the run panics with a *DeliveryError because a peer vanished —
// the rank parks instead of failing, then rejoins through the rendezvous
// with the same rank identity and runs fn again from the top. fn must
// therefore be a restartable program (the pic layer restores its state from
// the latest complete checkpoint epoch on re-entry). The park-and-rejoin is
// the recovery barrier: every surviving rank observes the same failure
// cascade, abandons the dead world, and re-assembles at the coordinator,
// which must be running ServeElastic. Non-delivery failures (protocol
// misuse, rank panics of fn's own) and an exhausted budget propagate as the
// usual *RankPanic.
func NetRank(cfg NetConfig, wrap func(Transport) Transport, fn func(Transport)) (machine.Stats, error) {
	cfg = cfg.withNetDefaults()
	if cfg.Size <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return machine.Stats{}, fmt.Errorf("comm: NetRank with rank %d of %d", cfg.Rank, cfg.Size)
	}
	if cfg.Coordinator == "" {
		return machine.Stats{}, errors.New("comm: NetRank needs a coordinator address")
	}
	if cfg.Topology == nil {
		cfg.Topology = NewFullMesh(cfg.Size)
	}
	if cfg.Topology.Size() != cfg.Size {
		return machine.Stats{}, fmt.Errorf("comm: NetRank topology %s is for p=%d, world has P=%d",
			cfg.Topology.Name(), cfg.Topology.Size(), cfg.Size)
	}
	backoff := cfg.RejoinBackoff
	for attempt := 1; ; attempt++ {
		n, err := dialWorld(cfg, nil)
		if err != nil {
			return machine.Stats{}, fmt.Errorf("comm: rank %d join: %w", cfg.Rank, err)
		}
		// A crashed run tears down abruptly — no goodbye, close everything
		// now — so peers observe EOF and diagnose this rank within their
		// next Recv.
		rp := runRank(cfg.Rank, n, wrap, fn)
		n.shutdown(rp == nil)
		if rp == nil {
			return n.stats, nil
		}
		if attempt >= cfg.RejoinAttempts || AsDeliveryError(rp.Value) == nil {
			return machine.Stats{}, rp // out of budget, or not a dead world
		}
		time.Sleep(jitter(backoff))
		if backoff *= 2; backoff > cfg.RejoinMaxBackoff {
			backoff = cfg.RejoinMaxBackoff
		}
	}
}

// LaunchLoopback runs fn as a p-rank SPMD program over real loopback TCP
// sockets inside one process: a coordinator plus p NetRank endpoints, each
// on its own goroutine. It is the net backend's analogue of Launch, used by
// tests and for trying out the backend without spawning processes. tmpl
// supplies Params and any timeout overrides; Coordinator, Rank and Size are
// filled in. With tmpl.RejoinAttempts > 0 the coordinator serves
// ServeElastic rounds until every rank is done, so a rank whose world
// collapses mid-run (a peer's death surfacing as a *DeliveryError)
// rejoins and retries instead of failing the launch. Returns every rank's
// stats ledger and a per-rank error slice (nil entries for clean ranks).
func LaunchLoopback(tmpl NetConfig, p int, wrap func(Transport) Transport, fn func(Transport)) (machine.WorldStats, []error) {
	ws := machine.WorldStats{Ranks: make([]machine.Stats, p)}
	errs := make([]error, p)
	co, err := StartCoordinator("127.0.0.1:0", p, tmpl.withNetDefaults().RendezvousTimeout)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return ws, errs
	}
	defer co.Close()
	serve := co.Serve
	if tmpl.RejoinAttempts > 0 {
		serve = co.ServeElastic
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve() }()

	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := tmpl
			cfg.Coordinator = co.Addr()
			cfg.Rank, cfg.Size = rank, p
			ws.Ranks[rank], errs[rank] = NetRank(cfg, wrap, fn)
		}(i)
	}
	wg.Wait()
	if tmpl.RejoinAttempts > 0 {
		co.Close() // ServeElastic only returns once the listener closes
	}
	if e := <-serveErr; e != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = fmt.Errorf("comm: rendezvous: %w", e)
			}
		}
	}
	return ws, errs
}

// oobMsg is one Expose publication in flight, attributed to its origin rank
// so sparse worlds can circulate publications over the ring (the origin is
// then not the connection's peer).
type oobMsg struct {
	from int
	val  any
}

// netPeer is one live connection to a remote rank.
type netPeer struct {
	id   int
	conn net.Conn
	wmu  sync.Mutex // serialises frame writes (rank goroutine + heartbeats)

	inbox chan message // data frames, closed by the reader on exit
	oob   chan oobMsg  // Expose publications, closed with inbox

	// dead holds the first failure reason observed on this connection; nil
	// while the peer is healthy. clean marks a goodbye-announced departure.
	dead       atomic.Pointer[string]
	clean      atomic.Bool
	readerDone chan struct{}
}

// fail records the first failure reason; later reasons are ignored.
func (p *netPeer) fail(reason string) {
	r := reason
	p.dead.CompareAndSwap(nil, &r)
}

// failure returns the recorded reason, or a generic one.
func (p *netPeer) failure() string {
	if r := p.dead.Load(); r != nil {
		return *r
	}
	return "peer connection lost"
}

// netTransport is the TCP link under the shared core: one socket per linked
// peer, a reader goroutine per socket. Like every Transport it is owned by
// one goroutine; the reader and heartbeat goroutines only touch the
// channels and atomics.
type netTransport struct {
	core
	cfg NetConfig

	peers []*netPeer // indexed by rank; own slot and non-topology ranks are nil

	// relay, when non-nil, receives every frameRelay and frameOOBFrom frame
	// read off this endpoint's connections instead of the default routing —
	// the hook through which a hierarchical gateway (hier.go) forwards
	// cross-host traffic to its in-process ranks. Set before the readers
	// start (dialWorld), never after.
	relay func(netFrame)

	closed  atomic.Bool
	closing chan struct{} // closed at shutdown; unblocks reader channel pushes
	stopHB  chan struct{}
	hbDone  chan struct{}
}

// post writes m to dst's socket; the frame carries the modelled size and
// post-send clock so the receiver's charge matches the goroutine backend's.
// A dead peer or failed write raises a *DeliveryError; an unencodable body
// raises a *TransportError.
//
// Once encoded, a slice body has no holder left: the sender gave it up
// with the Send and the receiver decodes into a boxed buffer of its
// own. So post recycles it here, as the goroutine world's receiver does
// after unpacking. Expose values (publish aliases the caller's value) are
// not returned.
func (n *netTransport) post(dst int, m message) {
	f := netFrame{kind: frameData, tag: m.tag, nbytes: m.bytes, sentAt: m.sentAt, body: m.body}
	if err := n.writePeer(dst, &f); err != nil {
		var ce *CodecError
		if errors.As(err, &ce) {
			// The body cannot travel this wire: a programming error, never
			// retried.
			panic(&TransportError{Op: "send", Rank: n.id, Peer: dst, Tag: m.tag, Err: ce})
		}
		n.deliveryPanic(dst, m.tag, "send failed: "+err.Error())
	}
	switch h := m.body.(type) {
	case *[]float64:
		wire.Put(wire.Unbox(h))
	case *[]int:
		wire.PutInts(wire.Unbox(h))
	}
}

// writePeer encodes and writes one frame to dst, marking the peer dead on a
// write failure.
func (n *netTransport) writePeer(dst int, f *netFrame) error {
	p := n.peers[dst]
	if p == nil {
		return fmt.Errorf("no connection to rank %d", dst)
	}
	if r := p.dead.Load(); r != nil {
		return errors.New(*r)
	}
	err := writeFrame(p.conn, &p.wmu, writeTimeout, f)
	if err != nil {
		var ce *CodecError
		if !errors.As(err, &ce) {
			p.fail("write failed: " + err.Error())
		}
	}
	return err
}

// pull takes the next data message from src's reader. A peer that died —
// abrupt EOF, heartbeat silence, clean goodbye while traffic was still
// owed — fails the call with a *DeliveryError within a bounded time instead
// of hanging; a watchdog overrun is a diagnostic panic.
func (n *netTransport) pull(src int, tag Tag) message {
	p := n.peers[src]
	var m message
	ok := true
	if n.cfg.Watchdog <= 0 {
		m, ok = <-p.inbox
	} else {
		select {
		case m, ok = <-p.inbox:
		default:
			select {
			case m, ok = <-p.inbox:
			case <-n.arm(n.cfg.Watchdog):
				panic(fmt.Sprintf("comm: deadlock watchdog fired after %v: rank %d blocked receiving tag %d from rank %d (tcp backend)",
					n.cfg.Watchdog, n.id, tag, src))
			}
		}
	}
	if !ok {
		n.deliveryPanic(src, tag, p.failure())
	}
	return m
}

// publish exchanges the Expose publications over dedicated oob frames: raw
// socket traffic, not modelled Sends, so Expose stays uncharged beyond the
// core's two barriers on every topology.
//
// On a full mesh every rank writes its publication directly to every peer.
// A sparse world has no socket to non-adjacent ranks, so publications are
// circulated around the ±1 ring (always linked — the collective skeleton):
// each rank injects its own value, then forwards what arrives from its
// predecessor for p−1 rounds. A dead non-adjacent rank surfaces as a
// cascade: its neighbors' Expose fails, they crash, and the EOF propagates
// around the ring within the heartbeat bound.
func (n *netTransport) publish(v any) []any {
	out := make([]any, n.p)
	out[n.id] = v
	if !n.topo.IsFullMesh() {
		n.exposeRing(v, out)
		return out
	}
	f := netFrame{kind: frameOOB, body: v}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		if err := n.writePeer(p.id, &f); err != nil {
			n.deliveryPanic(p.id, tagExpose, "expose publication failed: "+err.Error())
		}
	}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		m, ok := <-p.oob
		if !ok {
			n.deliveryPanic(p.id, tagExpose, p.failure())
		}
		out[p.id] = m.val
	}
	return out
}

// exposeRing circulates origin-attributed publications over the ±1 ring
// links: inject own value, then p−1 rounds of receive-from-prev (recording)
// and forward-to-next (except in the last round, when the arriving value's
// final stop is this rank).
func (n *netTransport) exposeRing(v any, out []any) {
	next := (n.id + 1) % n.p
	prev := (n.id - 1 + n.p) % n.p
	f := netFrame{kind: frameOOBFrom, rank: n.id, body: v}
	if err := n.writePeer(next, &f); err != nil {
		n.deliveryPanic(next, tagExpose, "expose publication failed: "+err.Error())
	}
	pp := n.peers[prev]
	seen := make([]bool, n.p)
	for i := 0; i < n.p-1; i++ {
		m, ok := <-pp.oob
		if !ok {
			n.deliveryPanic(prev, tagExpose, pp.failure())
		}
		if m.from < 0 || m.from >= n.p || m.from == n.id || seen[m.from] {
			n.deliveryPanic(prev, tagExpose, fmt.Sprintf("protocol violation: duplicate or invalid expose origin %d", m.from))
		}
		seen[m.from] = true
		out[m.from] = m.val
		if i < n.p-2 {
			ff := netFrame{kind: frameOOBFrom, rank: m.from, body: m.val}
			if err := n.writePeer(next, &ff); err != nil {
				n.deliveryPanic(next, tagExpose, "expose forward failed: "+err.Error())
			}
		}
	}
}

// readLoop demultiplexes one peer connection until goodbye, EOF, error or
// shutdown. It owns closing the inbox and oob channels; buffered messages
// stay receivable after close, so a goodbye never discards delivered data.
func (n *netTransport) readLoop(p *netPeer) {
	defer close(p.readerDone)
	defer close(p.oob)
	defer close(p.inbox)
	for {
		f, err := readFrame(p.conn, n.cfg.HeartbeatTimeout)
		if err != nil {
			p.fail(classifyReadError(err, n.cfg.HeartbeatTimeout))
			return
		}
		switch f.kind {
		case frameHeartbeat:
			// Liveness only; the successful read already reset the deadline.
		case frameGoodbye:
			p.clean.Store(true)
			p.fail("peer departed (clean goodbye, no more traffic will arrive)")
			return
		case frameData:
			select {
			case p.inbox <- message{tag: f.tag, bytes: f.nbytes, sentAt: f.sentAt, body: f.body}:
			case <-n.closing:
				return
			}
		case frameOOB:
			select {
			case p.oob <- oobMsg{from: p.id, val: f.body}:
			case <-n.closing:
				return
			}
		case frameOOBFrom:
			if n.relay != nil {
				// Hierarchical gateway: hand the attributed publication to
				// the in-process layer (hier.go) for distribution.
				n.relay(f)
				continue
			}
			select {
			case p.oob <- oobMsg{from: f.rank, val: f.body}:
			case <-n.closing:
				return
			}
		case frameRelay:
			if n.relay == nil {
				p.fail("protocol violation: relay frame on a non-gateway endpoint")
				return
			}
			n.relay(f)
		default:
			p.fail(fmt.Sprintf("protocol violation: unexpected frame kind 0x%02x", f.kind))
			return
		}
	}
}

// classifyReadError renders a read failure as a diagnostic reason.
func classifyReadError(err error, hbTimeout time.Duration) string {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		return fmt.Sprintf("heartbeat timeout: no traffic for %v (peer wedged or partitioned)", hbTimeout)
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return "connection closed by peer without goodbye (peer crashed or was killed)"
	default:
		return "read failed: " + err.Error()
	}
}

// heartbeatLoop beacons liveness to every healthy peer so silent-but-alive
// phases (long local computation) are not mistaken for death.
func (n *netTransport) heartbeatLoop() {
	defer close(n.hbDone)
	tick := time.NewTicker(n.cfg.HeartbeatInterval)
	defer tick.Stop()
	hb := netFrame{kind: frameHeartbeat}
	for {
		select {
		case <-n.stopHB:
			return
		case <-tick.C:
			for _, p := range n.peers {
				if p == nil || p.dead.Load() != nil {
					continue
				}
				if err := writeFrame(p.conn, &p.wmu, writeTimeout, &hb); err != nil {
					p.fail("heartbeat write failed: " + err.Error())
				}
			}
		}
	}
}

// shutdown tears the endpoint down. clean performs the goodbye + drain
// protocol; !clean (crash path) closes immediately so peers fail fast.
// Idempotent; after it returns no goroutine of this endpoint survives.
func (n *netTransport) shutdown(clean bool) {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	close(n.stopHB)
	<-n.hbDone
	if clean {
		bye := netFrame{kind: frameGoodbye}
		for _, p := range n.peers {
			if p == nil || p.dead.Load() != nil {
				continue
			}
			// Best effort: a peer that died mid-teardown is already
			// diagnosed elsewhere.
			_ = writeFrame(p.conn, &p.wmu, writeTimeout, &bye)
		}
		// Drain: keep connections open until every peer has said goodbye
		// (its reader exits) or the drain budget runs out, so closing can
		// never turn a peer's in-flight frames into a TCP reset.
		deadline := time.NewTimer(n.cfg.DrainTimeout)
		defer deadline.Stop()
	drain:
		for _, p := range n.peers {
			if p == nil {
				continue
			}
			select {
			case <-p.readerDone:
			case <-deadline.C:
				break drain
			}
		}
	}
	// Unblock any reader parked on a full channel, then close the sockets;
	// readers exit on the next read.
	close(n.closing)
	for _, p := range n.peers {
		if p != nil {
			_ = p.conn.Close()
		}
	}
	for _, p := range n.peers {
		if p != nil {
			<-p.readerDone
		}
	}
}

// dialWorld performs rendezvous and mesh establishment and returns a live
// endpoint with its reader and heartbeat goroutines running. relay (nil on
// a plain rank) is the gateway hook, installed before any reader goroutine
// starts so a forwarded frame can never race its installation.
func dialWorld(cfg NetConfig, relay func(netFrame)) (*netTransport, error) {
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("mesh listen on %q: %w", cfg.ListenAddr, err)
	}
	worldID, addrs, err := rendezvous(cfg, ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	conns, err := buildMesh(cfg, ln, worldID, addrs)
	ln.Close()
	if err != nil {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return nil, err
	}
	var clock machine.Clock = machine.NewSimClock()
	if cfg.WallClock {
		clock = machine.NewWallClock()
	}
	n := &netTransport{
		cfg:     cfg,
		peers:   make([]*netPeer, cfg.Size),
		relay:   relay,
		closing: make(chan struct{}),
		stopHB:  make(chan struct{}),
		hbDone:  make(chan struct{}),
	}
	n.core = newCore(n, cfg.Rank, cfg.Size, cfg.Params, cfg.Topology, &n.closed, clock)
	for id, c := range conns {
		if c == nil {
			continue
		}
		p := &netPeer{
			id:   id,
			conn: c,
			// The oob buffer holds a full ring circulation (size
			// publications) so sparse-world forwarding never backpressures
			// the reader against the rank goroutine.
			inbox:      make(chan message, DefaultMailboxDepth),
			oob:        make(chan oobMsg, cfg.Size),
			readerDone: make(chan struct{}),
		}
		n.peers[id] = p
		go n.readLoop(p)
	}
	go n.heartbeatLoop()
	return n, nil
}

// PeerCount returns the number of live TCP connections this endpoint holds —
// the measured (not asserted) socket count the traffic gate records per
// topology.
func (n *netTransport) PeerCount() int {
	c := 0
	for _, p := range n.peers {
		if p != nil {
			c++
		}
	}
	return c
}

// SocketCount walks t's decorator chain looking for a connection-holding
// backend and returns its live connection count. ok is false on backends
// with no real sockets (the goroutine World).
func SocketCount(t Transport) (count int, ok bool) {
	for t != nil {
		if pc, isPC := t.(interface{ PeerCount() int }); isPC {
			return pc.PeerCount(), true
		}
		w, isW := t.(Wrapper)
		if !isW {
			return 0, false
		}
		t = w.Unwrap()
	}
	return 0, false
}

// rendezvous registers this rank with the coordinator and returns the world
// id and per-rank mesh address table.
func rendezvous(cfg NetConfig, listenAddr string) (uint64, []string, error) {
	conn, err := dialRetry(cfg, cfg.Coordinator)
	if err != nil {
		return 0, nil, fmt.Errorf("rendezvous dial %s: %w", cfg.Coordinator, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(cfg.RendezvousTimeout))
	hello := netFrame{kind: frameHello, rank: cfg.Rank, size: cfg.Size, addr: listenAddr,
		topo: cfg.Topology.Digest()}
	var mu sync.Mutex
	if err := writeFrame(conn, &mu, cfg.RendezvousTimeout, &hello); err != nil {
		return 0, nil, fmt.Errorf("rendezvous hello: %w", err)
	}
	f, err := readFrame(conn, cfg.RendezvousTimeout)
	if err != nil {
		return 0, nil, fmt.Errorf("rendezvous reply: %w", err)
	}
	switch f.kind {
	case frameWelcome:
		if len(f.addrs) != cfg.Size {
			return 0, nil, fmt.Errorf("rendezvous table has %d ranks, want %d", len(f.addrs), cfg.Size)
		}
		return f.worldID, f.addrs, nil
	case frameReject:
		return 0, nil, fmt.Errorf("rendezvous rejected: %s", f.reason)
	}
	return 0, nil, fmt.Errorf("rendezvous reply kind 0x%02x", f.kind)
}

// buildMesh establishes the pairwise connections: dial every lower-ranked
// topology peer, accept from every higher-ranked one, each verified by the
// peer handshake. On the full mesh that is every other rank — O(P²)
// sockets world-wide; a sparse topology assembles only its link set,
// O(P·k). Returns per-rank connections (own slot and non-peers nil).
func buildMesh(cfg NetConfig, ln net.Listener, worldID uint64, addrs []string) ([]net.Conn, error) {
	conns := make([]net.Conn, cfg.Size)
	tp := cfg.Topology
	expect := 0 // inbound connections from higher-ranked peers
	var dials []int
	for _, q := range tp.Peers(cfg.Rank) {
		if q < cfg.Rank {
			dials = append(dials, q)
		} else {
			expect++
		}
	}

	type accepted struct {
		rank int
		conn net.Conn
	}
	acceptCh := make(chan accepted, expect)
	acceptErr := make(chan error, 1)
	if expect > 0 {
		go func() {
			got := 0
			for got < expect {
				if tl, ok := ln.(*net.TCPListener); ok {
					_ = tl.SetDeadline(time.Now().Add(cfg.RendezvousTimeout))
				}
				c, err := ln.Accept()
				if err != nil {
					acceptErr <- fmt.Errorf("mesh accept (%d/%d joined): %w", got, expect, err)
					return
				}
				from, err := acceptPeer(cfg, c, worldID, conns)
				if err != nil {
					// A stray or invalid connection was rejected and closed;
					// keep waiting for the legitimate peers.
					continue
				}
				acceptCh <- accepted{from, c}
				got++
			}
		}()
	}

	for _, i := range dials {
		c, err := dialPeer(cfg, worldID, i, addrs[i])
		if err != nil {
			// Name the topology and this rank's full peer set, so a
			// misconfigured sparse world diagnoses itself at the launcher.
			return conns, fmt.Errorf("%w (topology %s, peers of rank %d: %v)",
				err, tp.Name(), cfg.Rank, tp.Peers(cfg.Rank))
		}
		conns[i] = c
	}
	for got := 0; got < expect; got++ {
		select {
		case a := <-acceptCh:
			conns[a.rank] = a.conn
		case err := <-acceptErr:
			return conns, err
		}
	}
	return conns, nil
}

// dialPeer connects to rank peer and performs the identity handshake.
func dialPeer(cfg NetConfig, worldID uint64, peer int, addr string) (net.Conn, error) {
	c, err := dialRetry(cfg, addr)
	if err != nil {
		return nil, fmt.Errorf("mesh dial rank %d at %s: %w", peer, addr, err)
	}
	_ = c.SetDeadline(time.Now().Add(cfg.RendezvousTimeout))
	var mu sync.Mutex
	hello := netFrame{kind: framePeerHello, worldID: worldID, rank: cfg.Rank, peer: peer}
	if err := writeFrame(c, &mu, cfg.RendezvousTimeout, &hello); err != nil {
		c.Close()
		return nil, fmt.Errorf("mesh handshake with rank %d: %w", peer, err)
	}
	f, err := readFrame(c, cfg.RendezvousTimeout)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("mesh handshake reply from rank %d: %w", peer, err)
	}
	if f.kind == frameReject {
		c.Close()
		return nil, fmt.Errorf("mesh handshake rejected by rank %d: %s", peer, f.reason)
	}
	if f.kind != framePeerOK {
		c.Close()
		return nil, fmt.Errorf("mesh handshake reply kind 0x%02x from rank %d", f.kind, peer)
	}
	_ = c.SetDeadline(time.Time{})
	return c, nil
}

// acceptPeer verifies one inbound mesh connection: world id, addressed-to
// rank, dialing rank in range and not yet connected. Invalid connections
// are answered with a reject frame and closed.
func acceptPeer(cfg NetConfig, c net.Conn, worldID uint64, conns []net.Conn) (int, error) {
	_ = c.SetDeadline(time.Now().Add(cfg.RendezvousTimeout))
	var mu sync.Mutex
	reject := func(reason string) (int, error) {
		f := netFrame{kind: frameReject, reason: reason}
		_ = writeFrame(c, &mu, cfg.RendezvousTimeout, &f)
		c.Close()
		return 0, errors.New(reason)
	}
	f, err := readFrame(c, cfg.RendezvousTimeout)
	if err != nil {
		c.Close()
		return 0, err
	}
	if f.kind != framePeerHello {
		return reject(fmt.Sprintf("expected peer hello, got frame kind 0x%02x", f.kind))
	}
	if f.worldID != worldID {
		return reject("world id mismatch (connection from a different job?)")
	}
	if f.peer != cfg.Rank {
		return reject(fmt.Sprintf("connection addressed to rank %d, this is rank %d", f.peer, cfg.Rank))
	}
	if f.rank <= cfg.Rank || f.rank >= cfg.Size {
		return reject(fmt.Sprintf("unexpected dialing rank %d (accepting ranks %d..%d)", f.rank, cfg.Rank+1, cfg.Size-1))
	}
	if !cfg.Topology.Connected(cfg.Rank, f.rank) {
		return reject(cfg.Topology.errOutOf(f.rank, cfg.Rank).Error())
	}
	if conns[f.rank] != nil {
		return reject(fmt.Sprintf("rank %d is already connected (duplicate identity)", f.rank))
	}
	ok := netFrame{kind: framePeerOK}
	if err := writeFrame(c, &mu, cfg.RendezvousTimeout, &ok); err != nil {
		c.Close()
		return 0, err
	}
	_ = c.SetDeadline(time.Time{})
	return f.rank, nil
}

// dialRetry dials addr with capped exponential backoff and ±20% jitter.
func dialRetry(cfg NetConfig, addr string) (net.Conn, error) {
	var lastErr error
	backoff := cfg.DialBackoff
	for attempt := 0; attempt < cfg.DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(jitter(backoff))
			if backoff *= 2; backoff > dialMaxBackoff {
				backoff = dialMaxBackoff
			}
		}
		c, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%d attempts: %w", cfg.DialAttempts, lastErr)
}

// jitter spreads d by ±20% so restarting ranks do not dial in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	spread := int64(d) / 5
	return d - time.Duration(spread) + time.Duration(rand.Int64N(2*spread+1))
}

// writeFrame encodes f and writes it (length-prefixed, one Write call)
// under the connection's write lock with a bounded deadline.
func writeFrame(c net.Conn, mu *sync.Mutex, timeout time.Duration, f *netFrame) error {
	buf := wire.GetBytes(256 + bodyBytes(f.body))
	buf = append(buf, 0, 0, 0, 0) // length prefix placeholder
	buf, err := appendFrame(buf, f)
	if err != nil {
		wire.PutBytes(buf)
		return err
	}
	n := len(buf) - 4
	if n > maxFrameBytes {
		wire.PutBytes(buf)
		return &CodecError{Op: "encode", Msg: fmt.Sprintf("frame of %d bytes exceeds limit", n)}
	}
	buf[0] = byte(n)
	buf[1] = byte(n >> 8)
	buf[2] = byte(n >> 16)
	buf[3] = byte(n >> 24)
	mu.Lock()
	if timeout > 0 {
		_ = c.SetWriteDeadline(time.Now().Add(timeout))
	}
	_, werr := c.Write(buf)
	mu.Unlock()
	wire.PutBytes(buf)
	return werr
}

// readFrame reads one length-prefixed frame with a bounded deadline and
// decodes it. The scratch buffers, the length header's included (a stack
// array handed to the conn's Read would escape to the heap), are pooled;
// decoded values never alias them.
func readFrame(c net.Conn, timeout time.Duration) (netFrame, error) {
	if timeout > 0 {
		_ = c.SetReadDeadline(time.Now().Add(timeout))
	}
	hdr := wire.GetBytes(4)[:4]
	_, err := io.ReadFull(c, hdr)
	length := int(hdr[0]) | int(hdr[1])<<8 | int(hdr[2])<<16 | int(hdr[3])<<24
	wire.PutBytes(hdr)
	if err != nil {
		return netFrame{}, err
	}
	if length < 0 || length > maxFrameBytes {
		return netFrame{}, decErr("frame length %d out of range", length)
	}
	buf := wire.GetBytes(length)[:length]
	if _, err := io.ReadFull(c, buf); err != nil {
		wire.PutBytes(buf)
		return netFrame{}, err
	}
	f, err := decodeFrame(buf)
	wire.PutBytes(buf)
	return f, err
}
