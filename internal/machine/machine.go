// Package machine models a coarse-grained distributed-memory parallel
// machine using the two-level cost model of Liao, Ou and Ranka (IPPS 1996,
// Section 4): a unit of local computation costs δ, and a message of m bytes
// costs τ + m·μ, independent of the distance between the communicating
// processors.
//
// The model is realised as a simulated clock per rank. Computation advances
// only the local clock; communication charges both endpoints and carries the
// sender's completion time so that receives are causally ordered (a message
// cannot be consumed before it was sent). Execution time of a program region
// is the maximum clock advance over all ranks, i.e. the slowest processor,
// which is what the paper reports.
package machine

import (
	"fmt"
	"time"
)

// Params holds the two-level machine model constants. All times are in
// seconds.
type Params struct {
	// Tau is the communication start-up overhead per message (τ).
	Tau float64
	// MuPerByte is the inverse bandwidth: seconds per byte transferred (μ).
	MuPerByte float64
	// Delta is the cost of one unit of local computation (δ). A "unit" is
	// roughly one floating-point operation plus its associated loads/stores.
	Delta float64
}

// CM5 returns parameters resembling a Thinking Machines CM-5 node without
// vector units: ~86 µs message start-up (CMMD cooperative send), ~10 MB/s
// point-to-point bandwidth, and a ~33 MHz SPARC sustaining a few Mflop/s.
// These match the machine used in the paper's evaluation closely enough to
// reproduce the shape of its results.
// Delta is calibrated so that the paper's headline configuration (200
// iterations, 32768 irregular particles, 128×64 mesh, 32 processors)
// lands near its reported 74.88 s.
func CM5() Params {
	return Params{
		Tau:       86e-6,
		MuPerByte: 0.1e-6,
		Delta:     1.3e-6,
	}
}

// Modern returns parameters resembling a contemporary cluster node
// (low-microsecond latency, ~10 GB/s links, ~1 ns per scalar op). Useful to
// study how the paper's trade-offs shift when computation gets cheap
// relative to communication start-up.
func Modern() Params {
	return Params{
		Tau:       2e-6,
		MuPerByte: 0.1e-9,
		Delta:     1e-9,
	}
}

// Zero returns a params set where all costs are zero; simulated time then
// stays at zero and only real execution remains. Useful in unit tests that
// care about algorithmic results rather than timing.
func Zero() Params { return Params{} }

// MsgCost returns the modelled cost of transferring one message of n bytes.
func (p Params) MsgCost(nbytes int) float64 {
	return p.Tau + float64(float64(nbytes)*p.MuPerByte)
}

// ComputeCost returns the modelled cost of n units of local computation.
func (p Params) ComputeCost(n int) float64 {
	return float64(float64(n) * p.Delta)
}

func (p Params) String() string {
	return fmt.Sprintf("machine{tau=%.3gs mu=%.3gs/B delta=%.3gs}", p.Tau, p.MuPerByte, p.Delta)
}

// Clock is the time seam of one rank: every δ/τ/μ charge in the system
// flows through exactly one Clock implementation, so alternative execution
// modes (e.g. a future wall-clock mode) only need to supply a different
// Clock. Implementations are not safe for concurrent use; each rank owns
// its own.
type Clock interface {
	// Now returns the current time in seconds.
	Now() float64
	// Advance moves the clock forward by d seconds. Negative d is ignored
	// so that cost arithmetic bugs cannot travel back in time.
	Advance(d float64)
	// AdvanceTo moves the clock to at least t. Used when a received message
	// carries a completion time later than the local clock.
	AdvanceTo(t float64)
	// Reset sets the clock back to zero.
	Reset()
}

// SimClock is the simulated clock realising the paper's two-level cost
// model: it only moves when charged. The zero value is a clock at time
// zero.
type SimClock struct {
	now float64
}

// NewSimClock returns a simulated clock at time zero.
func NewSimClock() *SimClock { return &SimClock{} }

// Now implements Clock.
func (c *SimClock) Now() float64 { return c.now }

// Advance implements Clock.
func (c *SimClock) Advance(d float64) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo implements Clock.
func (c *SimClock) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Reset implements Clock.
func (c *SimClock) Reset() { c.now = 0 }

// WallClock is the wall-clock execution mode: Now is the real elapsed time
// since construction (or the last Reset). Modelled charges are no-ops —
// when a send takes real time, real time has already passed — so the same
// rank code runs unchanged while the clock reports what the hardware
// actually did. The stats ledgers still accumulate modelled τ/μ/δ prices,
// which is deliberate: comparing the modelled ledger against wall-clock
// Now is exactly how the cost model gets calibrated.
type WallClock struct {
	start time.Time
}

// NewWallClock returns a wall clock whose zero is now.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now implements Clock: seconds of real time since the epoch of the clock.
func (c *WallClock) Now() float64 { return time.Since(c.start).Seconds() }

// Advance implements Clock as a no-op: real time passes on its own.
func (c *WallClock) Advance(d float64) {}

// AdvanceTo implements Clock as a no-op: causality is physical — a message
// genuinely cannot be read before it was sent.
func (c *WallClock) AdvanceTo(t float64) {}

// Reset implements Clock by rebasing the epoch to now.
func (c *WallClock) Reset() { c.start = time.Now() }
