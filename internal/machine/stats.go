package machine

import (
	"fmt"
	"strings"
)

// Phase identifies one of the PIC time-step phases (plus bookkeeping
// phases) for per-phase accounting.
type Phase int

// Phases of one PIC iteration, in execution order, plus redistribution.
const (
	PhaseScatter Phase = iota
	PhaseFieldSolve
	PhaseGather
	PhasePush
	PhaseRedistribute
	// PhaseCommSetup covers protocol bookkeeping that is not ghost data
	// itself: traffic-table exchanges, synchronisation barriers and
	// measurement reductions. Kept separate so the scatter-phase traffic
	// figures count ghost data only, as the paper's Figures 18–19 do.
	PhaseCommSetup
	numPhases
)

var phaseNames = [...]string{
	PhaseScatter:      "scatter",
	PhaseFieldSolve:   "fieldsolve",
	PhaseGather:       "gather",
	PhasePush:         "push",
	PhaseRedistribute: "redistribute",
	PhaseCommSetup:    "commsetup",
}

func (p Phase) String() string {
	if p < 0 || int(p) >= len(phaseNames) {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// NumPhases is the number of distinct accounting phases.
const NumPhases = int(numPhases)

// PhaseStats accumulates the communication and computation observed by one
// rank during one phase.
type PhaseStats struct {
	ComputeTime float64 // simulated seconds of local computation
	CommTime    float64 // simulated seconds of communication (send+recv)
	BytesSent   int64
	BytesRecv   int64
	MsgsSent    int64
	MsgsRecv    int64
}

// Add accumulates o into s.
func (s *PhaseStats) Add(o PhaseStats) {
	s.ComputeTime += o.ComputeTime
	s.CommTime += o.CommTime
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.MsgsSent += o.MsgsSent
	s.MsgsRecv += o.MsgsRecv
}

// Stats is the per-rank accounting ledger: phase-resolved counters plus the
// rank's clock. A rank records into exactly one current phase at a time.
type Stats struct {
	phase  Phase
	Phases [NumPhases]PhaseStats
}

// SetPhase selects the phase subsequent compute/communication is charged to.
func (s *Stats) SetPhase(p Phase) { s.phase = p }

// CurrentPhase returns the phase being charged.
func (s *Stats) CurrentPhase() Phase { return s.phase }

// RecordCompute charges t simulated seconds of computation.
func (s *Stats) RecordCompute(t float64) { s.Phases[s.phase].ComputeTime += t }

// RecordSend charges one outgoing message of n bytes costing t seconds.
func (s *Stats) RecordSend(n int, t float64) {
	ps := &s.Phases[s.phase]
	ps.CommTime += t
	ps.BytesSent += int64(n)
	ps.MsgsSent++
}

// RecordRecv charges one incoming message of n bytes costing t seconds.
func (s *Stats) RecordRecv(n int, t float64) {
	ps := &s.Phases[s.phase]
	ps.CommTime += t
	ps.BytesRecv += int64(n)
	ps.MsgsRecv++
}

// Total returns the sum over all phases.
func (s *Stats) Total() PhaseStats {
	var t PhaseStats
	for i := range s.Phases {
		t.Add(s.Phases[i])
	}
	return t
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	for i := range s.Phases {
		s.Phases[i] = PhaseStats{}
	}
}

// Snapshot returns a copy of the current counters.
func (s *Stats) Snapshot() Stats { return *s }

// Diff returns the counters accumulated since the snapshot prev.
func (s *Stats) Diff(prev *Stats) Stats {
	var d Stats
	d.phase = s.phase
	for i := range s.Phases {
		a, b := s.Phases[i], prev.Phases[i]
		d.Phases[i] = PhaseStats{
			ComputeTime: a.ComputeTime - b.ComputeTime,
			CommTime:    a.CommTime - b.CommTime,
			BytesSent:   a.BytesSent - b.BytesSent,
			BytesRecv:   a.BytesRecv - b.BytesRecv,
			MsgsSent:    a.MsgsSent - b.MsgsSent,
			MsgsRecv:    a.MsgsRecv - b.MsgsRecv,
		}
	}
	return d
}

// WorldStats aggregates the per-rank ledgers of a whole run for reporting.
type WorldStats struct {
	Ranks []Stats
}

// MaxPhase returns, for phase p, the maximum over ranks of the given
// extractor — e.g. the "maximum amount of data sent by any processor in the
// scatter phase" curves of Figures 18 and 19.
func (w WorldStats) MaxPhase(p Phase, f func(PhaseStats) float64) float64 {
	max := 0.0
	for i := range w.Ranks {
		if v := f(w.Ranks[i].Phases[p]); v > max {
			max = v
		}
	}
	return max
}

// TotalCompute returns the sum over ranks of all-phase compute time: the
// "computation" component used in the paper's overhead and efficiency
// numbers.
func (w WorldStats) TotalCompute() float64 {
	t := 0.0
	for i := range w.Ranks {
		t += w.Ranks[i].Total().ComputeTime
	}
	return t
}

// MaxCompute returns the maximum over ranks of all-phase compute time.
func (w WorldStats) MaxCompute() float64 {
	m := 0.0
	for i := range w.Ranks {
		if v := w.Ranks[i].Total().ComputeTime; v > m {
			m = v
		}
	}
	return m
}

// Format renders a compact per-phase table (max over ranks per column).
func (w WorldStats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %12s %12s %12s %10s\n", "phase", "comp(max,s)", "comm(max,s)", "bytesSent", "msgsSent")
	for p := Phase(0); p < numPhases; p++ {
		comp := w.MaxPhase(p, func(s PhaseStats) float64 { return s.ComputeTime })
		comm := w.MaxPhase(p, func(s PhaseStats) float64 { return s.CommTime })
		bs := w.MaxPhase(p, func(s PhaseStats) float64 { return float64(s.BytesSent) })
		ms := w.MaxPhase(p, func(s PhaseStats) float64 { return float64(s.MsgsSent) })
		fmt.Fprintf(&b, "%-13s %12.6f %12.6f %12.0f %10.0f\n", p, comp, comm, bs, ms)
	}
	return b.String()
}
