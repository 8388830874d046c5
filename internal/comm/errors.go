// Typed errors of the transport layer. The SPMD substrate historically
// reported every failure as a panic with a formatted string; the reliability
// subsystem needs to distinguish "the network perturbed this message"
// (recoverable, the Reliable decorator's job) from "the program is broken"
// (teardown bugs, protocol misuse — must never be masked by retries), so
// the error paths now carry typed values:
//
//   - DeliveryError: a message could not be delivered intact. Raised by the
//     Faulty decorator when no reliability layer is present to recover an
//     injected fault, and by Reliable when its retry budget is exhausted.
//     Names rank, peer, tag and phase so a failed collective is diagnosable
//     without a stack trace.
//   - TransportError: the transport was used incorrectly — send to an
//     invalid rank, operation on a closed world. Never retried.
//   - RankPanic: the value re-raised by World.Run when a rank panicked,
//     wrapping the original panic value so callers can errors.As/Is into it.
//
// Because Transport.Send/Recv have no error returns (matching the message-
// passing substrate the paper's algorithms assume, where a failed primitive
// aborts the program), typed errors surface as panics; World.Run converts
// them into a *RankPanic on the launching goroutine.

package comm

import (
	"errors"
	"fmt"

	"picpar/internal/machine"
)

// ErrClosedWorld is the sentinel wrapped by TransportError when a rank
// touches a world whose Run has completed (or that was explicitly closed).
var ErrClosedWorld = errors.New("world is closed")

// TransportError reports a structural misuse of the transport: an operation
// that can never succeed regardless of network conditions. The reliability
// layer re-raises these untouched — retrying a send to a closed world would
// only hide a teardown bug.
type TransportError struct {
	Op   string // "send", "recv" or "expose"
	Rank int    // the rank performing the operation
	Peer int    // the destination (send) or source (recv)
	Tag  Tag
	Err  error // the underlying condition, e.g. ErrClosedWorld
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("comm: rank %d %s peer %d tag %d: %v", e.Rank, e.Op, e.Peer, e.Tag, e.Err)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *TransportError) Unwrap() error { return e.Err }

// DeliveryError reports that a message was lost, duplicated or reordered
// beyond what the installed reliability layer (if any) could recover. It is
// terminal: the receiving rank raises it instead of hanging, and World.Run
// re-raises it wrapped in a RankPanic on the caller.
type DeliveryError struct {
	Rank     int           // the receiving rank that detected the failure
	Peer     int           // the sending rank
	Tag      Tag           // the message tag
	Phase    machine.Phase // the accounting phase the receiver was in
	Attempts int           // delivery attempts observed (0 if not applicable)
	Reason   string        // "dropped", "duplicated", "reordered", "retries exhausted"
}

// Error implements error.
func (e *DeliveryError) Error() string {
	return fmt.Sprintf("comm: delivery failed: rank %d <- rank %d, tag %d, phase %s: %s (attempts=%d)",
		e.Rank, e.Peer, e.Tag, e.Phase, e.Reason, e.Attempts)
}

// RankPanic wraps a panic raised on one rank of an SPMD program so the
// original value survives re-raising on the launching goroutine. Recover it
// and inspect Value (or use AsDeliveryError) to distinguish delivery
// failures from programming errors.
type RankPanic struct {
	Rank  int
	Value any
}

// Error implements error; the text matches the historical string format.
func (e *RankPanic) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Value) }

// Unwrap exposes a wrapped error panic value for errors.As/Is.
func (e *RankPanic) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// AsDeliveryError extracts a *DeliveryError from a recovered panic value,
// looking through RankPanic wrapping. Returns nil if v is something else.
func AsDeliveryError(v any) *DeliveryError {
	switch e := v.(type) {
	case *DeliveryError:
		return e
	case error:
		var de *DeliveryError
		if errors.As(e, &de) {
			return de
		}
	}
	return nil
}

// Wrapper is implemented by decorator transports; Unwrap returns the next
// transport down the stack. Capability helpers (AsDegradable, flushChain)
// walk the chain with it, so a capability added by one decorator stays
// reachable when another decorator wraps it.
type Wrapper interface {
	Unwrap() Transport
}

// Degradable is the failure-scoping capability of the Reliable decorator:
// code that can tolerate a failed exchange (e.g. the redistribution phase,
// which keeps the previous alignment) runs it inside CollectFailures, where
// terminal delivery failures are recorded and returned instead of raised.
type Degradable interface {
	// CollectFailures runs fn with terminal delivery failures downgraded
	// from panics to recorded values; the protocol still completes
	// structurally (the substrate is lossless), so the SPMD world stays
	// synchronised and the caller decides what to discard.
	CollectFailures(fn func()) []*DeliveryError
}

// AsDegradable walks the decorator chain of t looking for a Degradable
// layer (the Reliable decorator). pic's redistribution uses it to discover
// whether a failed exchange is survivable on the transport it was handed.
func AsDegradable(t Transport) (Degradable, bool) {
	for t != nil {
		if d, ok := t.(Degradable); ok {
			return d, true
		}
		w, ok := t.(Wrapper)
		if !ok {
			return nil, false
		}
		t = w.Unwrap()
	}
	return nil, false
}

// flusher is implemented by decorators holding deferred messages (the
// Faulty reorder hold); RunWrapped flushes the chain when a rank's program
// returns so no message is withheld past the end of the run.
type flusher interface {
	flushHeld()
}

// flushChain walks the decorator chain flushing every layer that holds
// deferred messages.
func flushChain(t Transport) {
	for t != nil {
		if f, ok := t.(flusher); ok {
			f.flushHeld()
		}
		w, ok := t.(Wrapper)
		if !ok {
			return
		}
		t = w.Unwrap()
	}
}
