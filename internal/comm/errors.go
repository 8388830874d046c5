// Typed errors of the transport layer. Transport.Send/Recv have no error
// returns, matching the message-passing substrate the paper's algorithms
// assume, where a failed primitive aborts the program: a failure surfaces
// as a panic carrying a typed value, and World.Run (or the launcher)
// converts it into a *RankPanic on the launching goroutine.
//
//   - DeliveryError: the exchange with a peer failed under the backend — a
//     dead peer or host, a failed write. It names rank, peer, tag and phase
//     so a failed collective is diagnosable without a stack trace, and it
//     is the one failure elastic NetRank recovery rejoins from.
//   - TransportError: the transport was used incorrectly — send to an
//     invalid rank, operation on a closed world. Never recovered.
//   - RankPanic: the value re-raised by World.Run when a rank panicked,
//     wrapping the original panic value so callers can errors.As/Is into it.

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
// that can never succeed whatever the peers do. Elastic recovery does not
// rejoin from it — rerunning a send to a closed world would only hide a
// teardown bug.
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

// DeliveryError reports that the exchange with a peer failed: the peer or
// its host died, or a write to it failed. It is terminal for the run: the
// rank raises it instead of hanging, World.Run re-raises it wrapped in a
// RankPanic on the caller, and an elastic NetRank rejoins from the last
// checkpoint.
type DeliveryError struct {
	Rank   int           // the rank that detected the failure
	Peer   int           // the rank it was exchanging with
	Tag    Tag           // the message tag
	Phase  machine.Phase // the accounting phase the rank was in
	Reason string        // the root cause, e.g. a heartbeat timeout or a write error
}

// Error implements error.
func (e *DeliveryError) Error() string {
	return fmt.Sprintf("comm: delivery failed: rank %d <- rank %d, tag %d, phase %s: %s",
		e.Rank, e.Peer, e.Tag, e.Phase, e.Reason)
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
// transport down the stack, so a helper that looks for a capability of the
// backend (SocketCount) finds it through any decorator wrapping it.
type Wrapper interface {
	Unwrap() Transport
}
