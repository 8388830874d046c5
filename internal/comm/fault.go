// The fault-injecting decorator transport: wraps any Transport (in the
// shape of the Tracer) and perturbs the messages flowing through Send/Recv
// according to a deterministic, seeded FaultPlan — per-link delays,
// reorderings, duplicates and drops. Because every collective is built from
// Send/Recv, a single decorator hardens the whole collective surface and
// everything composed on top of it (redistribution, policy measurement).
//
// The substrate underneath is lossless, so faults are modelled as metadata
// riding on a fault envelope rather than as information loss: a "dropped"
// message still physically arrives, carrying the number of times the
// network discarded it before a copy got through. That keeps every rank's
// protocol structurally complete (no injected fault can hang the world)
// while forcing the layers above to deal with the fault: the Reliable
// decorator converts the metadata into retry charges on the simulated
// clock, and an unprotected receiver fails loudly with a DeliveryError
// instead of silently consuming perturbed traffic.
//
// Determinism: every decision is a pure function of (plan seed, sender,
// receiver, tag, per-link sequence number), independent of goroutine
// scheduling, so a seeded chaos run is exactly reproducible.

package comm

import (
	"sync"

	"picpar/internal/machine"
)

// FaultPlan describes what the chaotic network does to matching messages.
// Probabilities are per message and mutually exclusive (a message suffers at
// most one fault kind; drop wins over duplicate over reorder over delay).
// The zero value injects nothing.
type FaultPlan struct {
	// Seed drives every decision; equal seeds reproduce runs exactly.
	Seed uint64

	// DropProb is the probability a message is dropped by the network and
	// must be retransmitted. MaxDropAttempts bounds how many consecutive
	// copies are lost (default 1); a reliability layer gives up — with a
	// DeliveryError — when the count exceeds its retry budget.
	DropProb        float64
	MaxDropAttempts int
	// DupProb is the probability a spurious duplicate copy is delivered
	// right behind the original.
	DupProb float64
	// ReorderProb is the probability a message is held back and delivered
	// after the sender's next message on the same (destination, tag) link.
	// If no such message follows before the sender's next transport
	// operation, the hold is released in order (nothing to reorder with).
	ReorderProb float64
	// DelayProb is the probability a message suffers an extra transit
	// delay, uniform in (0, MaxDelay] simulated seconds, charged to the
	// receiver's clock.
	DelayProb float64
	MaxDelay  float64

	// Optional filters: a fault is only injected when the tag and the
	// sender's current accounting phase both match (nil means "any").
	Tags   []Tag
	Phases []machine.Phase
	// MinSeq exempts the first MinSeq messages of every matching link — a
	// warm-up grace, so setup traffic (initial distribution, first
	// exchanges) stays clean while steady-state traffic is perturbed.
	MinSeq uint64
}

// TagCollAllToMany exports the all-to-many collective's tag, for targeting
// its traffic in a FaultPlan (the collective itself keeps using the
// unexported name).
const TagCollAllToMany = tagAlltoMany

// faultKind labels what the plan decided for one message.
type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultDup
	faultReorder
	faultDelay
)

// decision is the plan's verdict for one message.
type decision struct {
	kind  faultKind
	drops int     // faultDrop: copies lost before one gets through
	delay float64 // faultDelay: extra transit delay in simulated seconds
}

// splitmix64 is the SplitMix64 mixing function: a full-avalanche hash used
// to derive independent pseudo-random streams from (seed, link, sequence).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to a float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// contains reports whether set admits v; a nil set admits everything.
func contains[T comparable](set []T, v T) bool {
	if set == nil {
		return true
	}
	for _, x := range set {
		if x == v {
			return true
		}
	}
	return false
}

// decide returns the plan's deterministic verdict for message number seq on
// the src→dst link with the given tag, sent during phase.
func (p *FaultPlan) decide(src, dst int, tag Tag, phase machine.Phase, seq uint64) decision {
	if seq < p.MinSeq {
		return decision{}
	}
	if !contains(p.Tags, tag) || !contains(p.Phases, phase) {
		return decision{}
	}
	h := splitmix64(p.Seed ^ splitmix64(uint64(src)+1))
	h = splitmix64(h ^ splitmix64(uint64(dst)+1))
	h = splitmix64(h ^ splitmix64(uint64(int64(tag))+0x5bd1e995))
	h = splitmix64(h ^ splitmix64(seq+1))
	u := unit(h)
	switch {
	case u < p.DropProb:
		attempts := 1
		if p.MaxDropAttempts > 1 {
			attempts = 1 + int(splitmix64(h^1)%uint64(p.MaxDropAttempts))
		}
		return decision{kind: faultDrop, drops: attempts}
	case u < p.DropProb+p.DupProb:
		return decision{kind: faultDup}
	case u < p.DropProb+p.DupProb+p.ReorderProb:
		return decision{kind: faultReorder}
	case u < p.DropProb+p.DupProb+p.ReorderProb+p.DelayProb:
		return decision{kind: faultDelay, delay: unit(splitmix64(h^2)) * p.MaxDelay}
	}
	return decision{}
}

// faultMeta is the envelope metadata the fault layer attaches to every
// non-self message. inOrder reports whether the copy arrived in link order
// (false exactly when a reorder swapped it past a younger message).
type faultMeta struct {
	seq     uint64
	drops   int
	dup     bool
	delay   float64
	inOrder bool
}

// faultEnvelope is the wire format of the fault layer: metadata plus the
// application body. The modelled byte size is unchanged — the envelope is
// the simulator's representation of link-layer framing, not extra payload.
type faultEnvelope struct {
	seq   uint64
	drops int
	dup   bool
	delay float64
	body  any
}

// envelopeReceiver is the private seam between the Faulty and Reliable
// decorators: Reliable receives fault metadata alongside the payload so it
// can recover, where a plain Recv must fail loudly.
type envelopeReceiver interface {
	recvEnvelope(src int, tag Tag) (faultMeta, any, int)
}

// FaultCounts tallies the faults a Faulty decorator has injected.
type FaultCounts struct {
	Drops    int64 // messages that needed at least one retransmission
	Dups     int64 // spurious duplicate copies delivered
	Reorders int64 // messages swapped past a younger one
	Delays   int64 // messages given extra transit delay
	// DelayInjected is the total extra transit delay in simulated seconds.
	DelayInjected float64
}

// Faulty injects the faults of a FaultPlan into every rank it wraps.
// Install it with World.RunWrapped(faulty.Wrap, fn), or compose it under a
// Reliable decorator: Reliable's Wrap goes outside (closer to the
// application), Faulty's inside (closer to the wire) — see the decorator
// stack ordering rules in DESIGN.md. Self-sends bypass the network and are
// never perturbed.
type Faulty struct {
	plan FaultPlan

	mu     sync.Mutex
	counts FaultCounts
}

// NewFaulty returns a fault injector for the given plan.
func NewFaulty(plan FaultPlan) *Faulty {
	if plan.MaxDropAttempts <= 0 {
		plan.MaxDropAttempts = 1
	}
	return &Faulty{plan: plan}
}

// Wrap decorates t; pass this method (or a composition including it) to
// World.RunWrapped.
func (f *Faulty) Wrap(t Transport) Transport {
	return &faultyTransport{
		Transport: t,
		faulty:    f,
		sendSeq:   make(map[linkKey]uint64),
		recvSeq:   make(map[linkKey]uint64),
		held:      make(map[linkKey]heldMessage),
	}
}

// Counts returns the faults injected so far across all ranks.
func (f *Faulty) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// linkKey identifies one directed (peer, tag) message stream.
type linkKey struct {
	peer int
	tag  Tag
}

// heldMessage is a reorder hold: an envelope waiting for the sender's next
// message on the same link.
type heldMessage struct {
	env    faultEnvelope
	nbytes int
}

// faultyTransport is the per-rank fault-injecting endpoint. Owned by one
// goroutine like every Transport.
type faultyTransport struct {
	Transport
	faulty  *Faulty
	sendSeq map[linkKey]uint64 // next sequence number per outgoing link
	recvSeq map[linkKey]uint64 // next expected sequence per incoming link
	held    map[linkKey]heldMessage
}

// Unwrap implements Wrapper.
func (t *faultyTransport) Unwrap() Transport { return t.Transport }

// Send implements Transport: it consults the plan, then posts the fault
// envelope (and any duplicate or previously held copy) on the wire.
func (t *faultyTransport) Send(dst int, tag Tag, body any, nbytes int) {
	if dst == t.Rank() {
		// Local delivery never touches the network; pass through unharmed.
		t.Transport.Send(dst, tag, body, nbytes)
		return
	}
	key := linkKey{dst, tag}
	seq := t.sendSeq[key]
	t.sendSeq[key] = seq + 1

	// A message on a link with a pending hold completes the swap: it goes
	// out first and the held one follows, regardless of its own draw.
	if h, ok := t.held[key]; ok {
		delete(t.held, key)
		t.Transport.Send(dst, tag, faultEnvelope{seq: seq, body: body}, nbytes)
		t.Transport.Send(dst, tag, h.env, h.nbytes)
		return
	}
	// Any other pending holds are released in order before new traffic, so
	// a hold never outlives the sender's next transport operation.
	t.flushHeld()

	d := t.faulty.plan.decide(t.Rank(), dst, tag, t.Stats().CurrentPhase(), seq)
	t.faulty.record(d)
	env := faultEnvelope{seq: seq, drops: d.drops, delay: d.delay, body: body}
	switch d.kind {
	case faultReorder:
		t.held[key] = heldMessage{env: env, nbytes: nbytes}
		return
	case faultDup:
		t.Transport.Send(dst, tag, env, nbytes)
		dup := env
		dup.dup = true
		t.Transport.Send(dst, tag, dup, nbytes)
		return
	default:
		t.Transport.Send(dst, tag, env, nbytes)
	}
}

// record tallies one decision into the shared counters.
func (f *Faulty) record(d decision) {
	if d.kind == faultNone {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch d.kind {
	case faultDrop:
		f.counts.Drops++
	case faultDup:
		f.counts.Dups++
	case faultReorder:
		f.counts.Reorders++
	case faultDelay:
		f.counts.Delays++
		f.counts.DelayInjected += d.delay
	}
}

// flushHeld releases every reorder hold in link order. Called before the
// rank's next transport operation and, via RunWrapped, when the rank's
// program returns — a held message can therefore never strand a receiver.
func (t *faultyTransport) flushHeld() {
	if len(t.held) == 0 {
		return
	}
	for key, h := range t.held {
		delete(t.held, key)
		t.Transport.Send(key.peer, key.tag, h.env, h.nbytes)
	}
}

// Expose implements Transport: holds are flushed first, so a reorder hold
// can never stall a peer through the out-of-band channel's barriers (which
// run on the backend, below this decorator).
func (t *faultyTransport) Expose(v any) []any {
	t.flushHeld()
	return t.Transport.Expose(v)
}

// recvEnvelope pulls the next envelope off the (src, tag) stream, charges
// any injected transit delay to the receiver's clock, and returns the fault
// metadata alongside the payload. This is the seam the Reliable decorator
// recovers through.
func (t *faultyTransport) recvEnvelope(src int, tag Tag) (faultMeta, any, int) {
	t.flushHeld()
	body, nbytes := t.Transport.Recv(src, tag)
	if src == t.Rank() {
		return faultMeta{inOrder: true}, body, nbytes
	}
	env := body.(faultEnvelope)
	if env.delay > 0 {
		t.Clock().Advance(env.delay)
	}
	key := linkKey{src, tag}
	meta := faultMeta{seq: env.seq, drops: env.drops, dup: env.dup, delay: env.delay}
	if !env.dup {
		expect := t.recvSeq[key]
		meta.inOrder = env.seq == expect
		if env.seq >= expect {
			t.recvSeq[key] = env.seq + 1
		}
	}
	return meta, env.body, nbytes
}

// Recv implements Transport for a Faulty used without a reliability layer:
// perturbed traffic fails loudly with a DeliveryError naming rank, peer,
// tag and phase — never a hang, and never silent consumption of a message
// the network damaged.
func (t *faultyTransport) Recv(src int, tag Tag) (any, int) {
	meta, body, nbytes := t.recvEnvelope(src, tag)
	if meta.dup {
		panic(&DeliveryError{
			Rank: t.Rank(), Peer: src, Tag: tag, Phase: t.Stats().CurrentPhase(),
			Attempts: 1, Reason: "duplicated (no reliability layer installed)",
		})
	}
	if meta.drops > 0 {
		panic(&DeliveryError{
			Rank: t.Rank(), Peer: src, Tag: tag, Phase: t.Stats().CurrentPhase(),
			Attempts: meta.drops, Reason: "dropped (no reliability layer installed)",
		})
	}
	if !meta.inOrder {
		panic(&DeliveryError{
			Rank: t.Rank(), Peer: src, Tag: tag, Phase: t.Stats().CurrentPhase(),
			Attempts: 1, Reason: "reordered (no reliability layer installed)",
		})
	}
	return body, nbytes
}
