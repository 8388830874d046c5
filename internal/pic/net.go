// RunNet: one OS process's rank of a simulation over the TCP transport
// backend. The launcher/coordinator side lives in comm (StartCoordinator,
// SuperviseRanks) and cmd/picsim; this is the piece every rank process
// calls after parsing its flags.

package pic

import (
	"picpar/internal/comm"
	"picpar/internal/machine"
)

// RunNet joins the TCP world described by ncfg and runs this process's rank
// of the configured simulation. The world size comes from ncfg; cfg.P is
// overridden. cfg.Transport (the decorator chain) wraps the TCP endpoint
// exactly as it wraps goroutine ranks, so the chaos stack composes
// unchanged. Returns rank 0's Result, or (nil, nil) on other ranks; any
// rank failure — including a peer dying mid-run — comes back as an error
// (never a hang, bounded by the backend's timeouts).
func RunNet(ncfg comm.NetConfig, cfg Config) (*Result, error) {
	cfg.P = ncfg.Size
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Topology: the configured link set is the descriptor the TCP backend
	// assembles its socket mesh from — O(P·k) sockets under neighbor-sparse
	// instead of the full mesh's O(P²) — and the rendezvous pins its digest
	// so mismatched ranks are rejected at assembly.
	tp, err := TopologyFor(cfg)
	if err != nil {
		return nil, err
	}
	ncfg.Topology = tp
	if ncfg.Params == (machine.Params{}) {
		ncfg.Params = cfg.Machine
	}
	if ncfg.Watchdog <= 0 {
		ncfg.Watchdog = cfg.Watchdog
	}
	var res *Result
	rank := func(t comm.Transport) {
		r, rerr := RunRank(t, cfg)
		if rerr != nil {
			panic(rerr)
		}
		res = r
	}
	// With Recover on, the rank is elastic: when the world dies under it
	// (a peer was killed), it parks, rejoins through the rendezvous and
	// reruns the simulation — which restores the agreed checkpoint epoch
	// and continues. RunRank is re-entered from the top, so each attempt
	// starts from a clean state; it runs at most 8 times.
	if cfg.Recover {
		ncfg.RejoinAttempts = 8
	}
	_, err = comm.NetRank(ncfg, cfg.Transport, rank)
	return res, err
}
