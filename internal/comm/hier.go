// The hierarchical Transport backend: the hybrid host×core decomposition.
// A world of P ranks is split over H hosts, m = P/H ranks per host; ranks
// sharing a host exchange messages over in-process channels (exactly the
// goroutine World's substrate) while cross-host messages travel through ONE
// TCP gateway connection pair per host pair — O(H²) sockets for the whole
// world instead of O(P²), behind the same Transport interface and with the
// same modelled charges, so the algorithms and the goldens cannot tell the
// difference.
//
// Mechanics: a cross-host Send charges τ + n·μ on the sender's clock as
// usual, then hands the frame (frameRelay: world source, world destination,
// tag, modelled size, post-send clock, body) to the host's gateway — a
// netTransport whose relay hook routes inbound relay frames into
// per-(local destination, world source) channels. Both charges are the shared
// core's (core.go), so simulated time is identical to a flat world; the
// gateway forwarding itself is raw socket traffic, never charged.
//
// Expose composes the same way: the two charged barriers run over the world
// links (relaying where needed), and the uncharged publication exchange
// goes host-leader-to-host-leader — each host's local 0 ships its whole
// host's publications to every other gateway as origin-attributed
// frameOOBFrom frames.
//
// Failure: any gateway link dying (peer host crashed) or any local rank
// panicking closes the host's dead channel; every blocked operation on
// that host then fails with a *DeliveryError, mirroring the flat backends'
// fail-fast story.
//
// No product path launches this backend: it runs only inside one process,
// where the goroutine World is 5–100× faster on every message-path probe.
// It stays only because benchmark/probes.go pins LaunchHierarchical until
// the benchmark's next revision (ROADMAP 3(c)).

package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"picpar/internal/machine"
)

// hierHost is the shared state of one host: the intra-host mailboxes, the
// inbound cross-host channels the gateway's relay fills, and the gateway
// endpoint itself.
type hierHost struct {
	idx  int // host index in [0, hosts)
	base int // first world rank of this host
	m    int // locals per host
	p    int // world size

	// boxes[dstLocal*m+srcLocal] carries intra-host messages, exactly like
	// World.boxes.
	boxes []chan message
	// remote[dstLocal*p+worldSrc] carries cross-host messages routed in by
	// the gateway's relay hook.
	remote []chan message
	// scratch is the host's world-size Expose table; locals publish into
	// their own slot, the leader fills the remote slots.
	scratch []any
	// oobIn receives other hosts' publications (leader consumes).
	oobIn chan oobMsg

	gw *netTransport // nil when the world has one host

	// dead closes on the first host-level failure; reason records why.
	dead     chan struct{}
	deadOnce sync.Once
	reason   atomic.Pointer[string]
	// done marks intentional teardown, so gateway goodbyes during shutdown
	// are not misread as peer-host crashes.
	done atomic.Bool

	gate *gate
}

// fail records the first host-level failure and releases everyone blocked.
func (h *hierHost) fail(reason string) {
	h.deadOnce.Do(func() {
		h.reason.Store(&reason)
		close(h.dead)
		h.gate.abort()
	})
}

func (h *hierHost) failure() string {
	if r := h.reason.Load(); r != nil {
		return *r
	}
	return "host failed"
}

// relay routes one gateway frame into the host. It runs on the gateway's
// per-peer reader goroutines; the dead-select mirrors netTransport's
// closing-select so a stalled local can never wedge the gateway reader
// forever.
func (h *hierHost) relay(f netFrame) {
	switch f.kind {
	case frameRelay:
		dl := f.peer - h.base
		if dl < 0 || dl >= h.m || f.rank < 0 || f.rank >= h.p {
			h.fail(fmt.Sprintf("protocol violation: relay frame %d -> %d outside host %d (ranks %d..%d)",
				f.rank, f.peer, h.idx, h.base, h.base+h.m-1))
			return
		}
		select {
		case h.remote[dl*h.p+f.rank] <- message{tag: f.tag, bytes: f.nbytes, sentAt: f.sentAt, body: f.body}:
		case <-h.dead:
		}
	case frameOOBFrom:
		if f.rank < 0 || f.rank >= h.p {
			h.fail(fmt.Sprintf("protocol violation: expose publication from invalid world rank %d", f.rank))
			return
		}
		select {
		case h.oobIn <- oobMsg{from: f.rank, val: f.body}:
		case <-h.dead:
		}
	}
}

// hierTransport is one world rank's link of the hierarchical backend under
// the shared core: channel post intra-host, gateway relay cross-host,
// identical modelled charge either way.
type hierTransport struct {
	core
	host     *hierHost
	local    int // id - host.base
	watchdog time.Duration
}

// hostOf maps a world rank to its host index.
func (n *hierTransport) hostOf(r int) int { return r / n.host.m }

// post enqueues m for a same-host rank — aborting on host death and
// tripping the watchdog on a persistently full mailbox — or hands it to the
// gateway as a relay frame.
func (n *hierTransport) post(dst int, m message) {
	if n.hostOf(dst) != n.host.idx {
		f := netFrame{kind: frameRelay, rank: n.id, peer: dst, tag: m.tag,
			nbytes: m.bytes, sentAt: m.sentAt, body: m.body}
		if err := n.host.gw.writePeer(n.hostOf(dst), &f); err != nil {
			n.deliveryPanic(dst, m.tag, "gateway send failed: "+err.Error())
		}
		return
	}
	box := n.host.boxes[(dst-n.host.base)*n.host.m+n.local]
	select {
	case box <- m:
		return
	default:
	}
	expired := n.arm(n.watchdog)
	select {
	case box <- m:
	case <-n.host.dead:
		n.deliveryPanic(dst, m.tag, n.host.failure())
	case <-expired:
		panic(fmt.Sprintf("comm: deadlock watchdog fired after %v: rank %d blocked sending tag %d to rank %d (hier backend, mailbox full at depth %d)",
			n.watchdog, n.id, m.tag, dst, cap(box)))
	}
}

// pull takes the next message from src — off the intra-host mailbox or the
// channel the gateway relay fills — converting host death into a
// *DeliveryError and a watchdog overrun into a diagnostic panic. A message
// already buffered is always preferred over a concurrent death signal.
func (n *hierTransport) pull(src int, tag Tag) message {
	box := n.host.remote[n.local*n.p+src]
	if n.hostOf(src) == n.host.idx {
		box = n.host.boxes[n.local*n.host.m+(src-n.host.base)]
	}
	select {
	case m := <-box:
		return m
	default:
	}
	expired := n.arm(n.watchdog)
	select {
	case m := <-box:
		return m
	case <-n.host.dead:
		// Drain anything that raced in ahead of the failure.
		select {
		case m := <-box:
			return m
		default:
		}
		n.deliveryPanic(src, tag, n.host.failure())
	case <-expired:
	}
	panic(fmt.Sprintf("comm: deadlock watchdog fired after %v: rank %d blocked receiving tag %d from rank %d (hier backend)",
		n.watchdog, n.id, tag, src))
}

// publish moves the Expose publications intra-host through the shared
// scratch table and cross-host leader-to-leader as uncharged frameOOBFrom
// traffic.
func (n *hierTransport) publish(v any) []any {
	host := n.host
	host.scratch[n.id] = v
	if !host.gate.wait() { // all locals published
		n.deliveryPanic(n.id, tagExpose, host.failure())
	}
	if n.local == 0 && host.gw != nil {
		// Leader: ship this host's publications to every other gateway and
		// collect every other host's in return.
		for _, pr := range host.gw.peers {
			if pr == nil {
				continue
			}
			for l := 0; l < host.m; l++ {
				f := netFrame{kind: frameOOBFrom, rank: host.base + l, body: host.scratch[host.base+l]}
				if err := host.gw.writePeer(pr.id, &f); err != nil {
					host.fail("expose publication failed: " + err.Error())
					n.deliveryPanic(pr.id, tagExpose, host.failure())
				}
			}
		}
		for want := n.p - host.m; want > 0; want-- {
			select {
			case m := <-host.oobIn:
				host.scratch[m.from] = m.val
			case <-host.dead:
				n.deliveryPanic(n.id, tagExpose, host.failure())
			}
		}
	}
	if !host.gate.wait() { // leader done filling the table
		n.deliveryPanic(n.id, tagExpose, host.failure())
	}
	return append([]any(nil), host.scratch...)
}

// LaunchHierarchical runs fn as an SPMD program of p world ranks packed
// onto hosts in-process hosts: ranks [h·m, (h+1)·m) share host h's channel
// substrate, and each host owns one TCP gateway endpoint in an H-rank
// loopback world carrying all cross-host traffic. p must be divisible by
// hosts; hosts == 1 needs no sockets at all. wrap and watchdog have
// World.RunWrapped / SetWatchdog semantics; a rank panic is re-raised as a
// *RankPanic after every rank finishes, exactly like World.Run. The
// returned error covers world assembly only (coordinator or gateway mesh
// failures).
func LaunchHierarchical(p, hosts int, params machine.Params, watchdog time.Duration,
	wrap func(Transport) Transport, fn func(Transport)) (machine.WorldStats, error) {
	ws := machine.WorldStats{Ranks: make([]machine.Stats, p)}
	if p <= 0 || hosts <= 0 || p%hosts != 0 {
		return ws, fmt.Errorf("comm: hierarchical world of %d ranks on %d hosts (p must divide evenly)", p, hosts)
	}
	m := p / hosts

	var co *Coordinator
	serveErr := make(chan error, 1)
	if hosts > 1 {
		var err error
		co, err = StartCoordinator("127.0.0.1:0", hosts, 0)
		if err != nil {
			return ws, fmt.Errorf("comm: hierarchical coordinator: %w", err)
		}
		defer co.Close()
		go func() { serveErr <- co.Serve() }()
	} else {
		serveErr <- nil
	}

	// closed marks the launch finished, so an endpoint leaked past it fails
	// loudly with ErrClosedWorld like the flat backends' do.
	var closed atomic.Bool
	defer closed.Store(true)
	topo := NewFullMesh(p)
	transports := make([]*hierTransport, p)
	hostErrs := make([]error, hosts)
	panics := make(chan *RankPanic, p)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			host := &hierHost{
				idx:     h,
				base:    h * m,
				m:       m,
				p:       p,
				boxes:   make([]chan message, m*m),
				remote:  make([]chan message, m*p),
				scratch: make([]any, p),
				oobIn:   make(chan oobMsg, p),
				dead:    make(chan struct{}),
				gate:    newGate(m),
			}
			for i := range host.boxes {
				host.boxes[i] = make(chan message, DefaultMailboxDepth)
			}
			for i := range host.remote {
				host.remote[i] = make(chan message, DefaultMailboxDepth)
			}
			if hosts > 1 {
				gwCfg := NetConfig{
					Coordinator: co.Addr(),
					Rank:        h,
					Size:        hosts,
					Params:      params,
					Topology:    NewFullMesh(hosts),
				}.withNetDefaults()
				gw, err := dialWorld(gwCfg, host.relay)
				if err != nil {
					hostErrs[h] = fmt.Errorf("comm: host %d gateway: %w", h, err)
					host.fail(hostErrs[h].Error())
					return
				}
				host.gw = gw
				// Watch every gateway link: an unclean exit of a peer's
				// reader means that host crashed — fail ours so its locals
				// stop waiting on traffic that will never come. A clean
				// goodbye (that host finished) is not a failure: no SPMD
				// protocol awaits traffic a finished peer never sent.
				for _, pr := range gw.peers {
					if pr == nil {
						continue
					}
					go func(pr *netPeer) {
						<-pr.readerDone
						if pr.clean.Load() || host.done.Load() {
							return
						}
						host.fail(fmt.Sprintf("gateway link to host %d: %s", pr.id, pr.failure()))
					}(pr)
				}
			}

			var crashed atomic.Bool
			var lwg sync.WaitGroup
			for l := 0; l < m; l++ {
				lwg.Add(1)
				go func(l int) {
					defer lwg.Done()
					r := &hierTransport{host: host, local: l, watchdog: watchdog}
					r.core = newCore(r, host.base+l, p, params, topo, &closed, machine.NewSimClock())
					transports[r.id] = r
					if rp := runRank(r.id, r, wrap, fn); rp != nil {
						crashed.Store(true)
						host.fail(fmt.Sprintf("world rank %d panicked: %v", r.id, rp.Value))
						panics <- rp
					}
				}(l)
			}
			lwg.Wait()
			if host.gw != nil {
				host.done.Store(true)
				host.gw.shutdown(!crashed.Load())
			}
		}(h)
	}
	wg.Wait()
	if co != nil {
		co.Close()
	}
	var err error
	for _, e := range hostErrs {
		if e != nil {
			err = e
			break
		}
	}
	if err == nil {
		if e := <-serveErr; e != nil {
			err = fmt.Errorf("comm: hierarchical rendezvous: %w", e)
		}
	}
	select {
	case e := <-panics:
		panic(e)
	default:
	}
	for i, r := range transports {
		if r != nil {
			ws.Ranks[i] = r.stats
		}
	}
	return ws, err
}
