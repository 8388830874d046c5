// Checkpoint support: policies expose their mutable decision state as a
// flat float vector so the restart image preserves the balancer's memory
// (Sauget & Latu's observation that recovery must not reset the policy).
// Configuration fields (K, Strategy, the chooser) are NOT part of the
// state — they are rebuilt from the run configuration on restore, and a
// shard written under one policy configuration is refused by the
// pipeline's signature check before RestoreState is ever called.

package policy

import "fmt"

// StateCodec is the optional interface a Policy implements to make its
// mutable decision state checkpointable. AppendState appends the state to
// dst and returns it; RestoreState replaces the current state with a
// vector previously produced by AppendState on an identically configured
// policy. Policies without the interface carry no state across a restart.
type StateCodec interface {
	AppendState(dst []float64) []float64
	RestoreState(src []float64) error
}

// AppendState implements StateCodec: Static has no state.
func (Static) AppendState(dst []float64) []float64 { return dst }

// RestoreState implements StateCodec.
func (Static) RestoreState(src []float64) error {
	if len(src) != 0 {
		return fmt.Errorf("policy: static restore of %d values (want 0)", len(src))
	}
	return nil
}

// AppendState implements StateCodec: Periodic's decisions depend only on
// the iteration number, so there is no mutable state.
func (p *Periodic) AppendState(dst []float64) []float64 { return dst }

// RestoreState implements StateCodec.
func (p *Periodic) RestoreState(src []float64) error {
	if len(src) != 0 {
		return fmt.Errorf("policy: periodic restore of %d values (want 0)", len(src))
	}
	return nil
}

// dynamicStateLen is Dynamic's state width: i0, t0, haveT0, tRedist.
const dynamicStateLen = 4

// AppendState implements StateCodec: the SAR baseline and the measured
// redistribution cost.
func (d *Dynamic) AppendState(dst []float64) []float64 {
	have := 0.0
	if d.haveT0 {
		have = 1
	}
	return append(dst, float64(d.i0), d.t0, have, d.tRedist)
}

// RestoreState implements StateCodec.
func (d *Dynamic) RestoreState(src []float64) error {
	if len(src) != dynamicStateLen {
		return fmt.Errorf("policy: dynamic restore of %d values (want %d)", len(src), dynamicStateLen)
	}
	d.i0 = int(src[0])
	d.t0 = src[1]
	d.haveT0 = src[2] != 0
	d.tRedist = src[3]
	return nil
}

// adaptiveStateLen is Adaptive's own state width (the inner trigger's
// state follows): the current strategy's coordinates.
const adaptiveStateLen = 2

// AppendState implements StateCodec: the current strategy followed by the
// inner when-trigger's state (when it has any).
func (a *Adaptive) AppendState(dst []float64) []float64 {
	dst = append(dst, float64(a.current.Split), float64(a.current.Movement))
	if sc, ok := a.When.(StateCodec); ok {
		dst = sc.AppendState(dst)
	}
	return dst
}

// RestoreState implements StateCodec.
func (a *Adaptive) RestoreState(src []float64) error {
	if len(src) < adaptiveStateLen {
		return fmt.Errorf("policy: adaptive restore of %d values (want >= %d)", len(src), adaptiveStateLen)
	}
	a.current = Strategy{Split: Split(src[0]), Movement: Movement(src[1])}
	rest := src[adaptiveStateLen:]
	if sc, ok := a.When.(StateCodec); ok {
		return sc.RestoreState(rest)
	}
	if len(rest) != 0 {
		return fmt.Errorf("policy: adaptive restore left %d values for a stateless trigger", len(rest))
	}
	return nil
}
