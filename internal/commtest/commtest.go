// Package commtest provides the shared SPMD test harness: world
// constructors with the deadlock watchdog armed by default, so any stuck
// protocol in any package's tests fails within seconds with a diagnostic
// naming the blocked ranks and tags, instead of hanging the test binary
// until the go test timeout.
//
// The watchdog duration is tunable through the PICPAR_WATCHDOG environment
// variable (any time.ParseDuration string; "0" or "off" disables it — e.g.
// when single-stepping a rank under a debugger, where wall-clock stalls are
// expected).
//
// comm's own package-internal tests cannot import this package (it would be
// an import cycle); they arm the watchdog directly via comm.EnvWatchdog.
package commtest

import (
	"time"

	"picpar/internal/comm"
	"picpar/internal/machine"
)

// DefaultWatchdog is the default deadlock deadline for tests: far above any
// legitimate single blocking operation, far below the go test timeout.
const DefaultWatchdog = 10 * time.Second

// Watchdog returns the test watchdog duration: PICPAR_WATCHDOG if set,
// DefaultWatchdog otherwise.
func Watchdog() time.Duration { return comm.EnvWatchdog(DefaultWatchdog) }

// NewWorld is comm.NewWorld with the test watchdog armed.
func NewWorld(p int, params machine.Params) *comm.World {
	w := comm.NewWorld(p, params)
	w.SetWatchdog(Watchdog())
	return w
}

// Launch is comm.Launch with the test watchdog armed: it runs fn on p ranks
// of a fresh watched world and closes the world when the program returns.
func Launch(p int, params machine.Params, fn func(comm.Transport)) machine.WorldStats {
	w := NewWorld(p, params)
	defer w.Close()
	return w.Run(fn)
}

// NetTemplate returns a NetConfig template for tests over the loopback TCP
// backend: the test watchdog armed and the failure-detection timeouts
// tightened so failure-path tests finish in seconds while staying far above
// scheduler noise.
func NetTemplate(params machine.Params) comm.NetConfig {
	return comm.NetConfig{
		Params:            params,
		Watchdog:          Watchdog(),
		DialTimeout:       time.Second,
		DialBackoff:       10 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		DrainTimeout:      5 * time.Second,
		RendezvousTimeout: 20 * time.Second,
	}
}
