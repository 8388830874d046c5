package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/particle"
	"picpar/internal/pic"
	"picpar/internal/policy"
)

// trafficSnapshot is the on-disk schema of a TRAFFIC_<date>.json file: the
// per-phase message/byte totals of one deterministic traced reference
// simulation. Unlike wall-clock measurements these numbers carry no noise
// at all — the simulated transport is fully deterministic — so the
// comparison tolerates zero inflation.
type trafficSnapshot struct {
	Schema    string              `json:"schema"` // always "picpar-traffic/v1"
	Date      string              `json:"date"`   // YYYY-MM-DD of the run
	GoVersion string              `json:"go"`
	Config    trafficConfig       `json:"config"`
	Phases    []trafficPhaseEntry `json:"phases"`
	// Topologies is the per-topology socket/message matrix (additive field;
	// snapshots predating the topology layer simply omit it).
	Topologies []trafficTopologyEntry `json:"topologies,omitempty"`
}

// trafficConfig pins the reference run so snapshots stay comparable; a
// mismatch against the previous snapshot resets the baseline instead of
// comparing apples to oranges.
type trafficConfig struct {
	Nx           int    `json:"nx"`
	Ny           int    `json:"ny"`
	P            int    `json:"p"`
	NumParticles int    `json:"num_particles"`
	Iterations   int    `json:"iterations"`
	Policy       string `json:"policy"`
	Seed         int64  `json:"seed"`
}

// trafficPhaseEntry is one accounting phase's traffic, summed over ranks.
type trafficPhaseEntry struct {
	Phase     string `json:"phase"`
	MsgsSent  int64  `json:"msgs_sent"`
	BytesSent int64  `json:"bytes_sent"`
	MsgsRecv  int64  `json:"msgs_recv"`
	BytesRecv int64  `json:"bytes_recv"`
}

// trafficTopologyEntry records one (topology, P) cell of the socket matrix:
// the descriptor's link count, the live TCP connection count a real loopback
// assembly of that topology opened (measured via comm.SocketCount, each
// linked pair sharing one socket), and the traced total message count of
// the reference run under that topology.
type trafficTopologyEntry struct {
	Topology string `json:"topology"`
	P        int    `json:"p"`
	Links    int    `json:"links"`
	Sockets  int    `json:"sockets"`
	MsgsSent int64  `json:"msgs_sent,omitempty"`
}

// trafficReferenceConfig is the fixed simulation the gate measures: small
// enough to run in well under a second, irregular enough that every phase
// (halo exchange, reductions, redistribution all-to-many) moves real
// traffic. Periodic(3) pins the redistribution schedule so traffic cannot
// legitimately drift with timing.
func trafficReferenceConfig() (pic.Config, trafficConfig) {
	cfg := pic.Config{
		Grid:         mesh.NewGrid(32, 16),
		P:            4,
		NumParticles: 2048,
		Distribution: particle.DistIrregular,
		Seed:         7,
		Iterations:   10,
		Policy:       policy.NewPeriodic(3),
	}
	meta := trafficConfig{
		Nx: 32, Ny: 16,
		P:            cfg.P,
		NumParticles: cfg.NumParticles,
		Iterations:   cfg.Iterations,
		Policy:       "periodic(3)",
		Seed:         cfg.Seed,
	}
	return cfg, meta
}

// runTraffic runs the traced reference simulation and fails on any
// per-phase message or byte increase over the most recent previous
// snapshot in dir. It writes TRAFFIC_<date>.json only when there is no
// baseline yet, or when the gate passes and the totals differ from the
// baseline (they fell, or the reference config changed). It additionally
// measures the per-topology socket matrix over real loopback TCP
// assemblies and fails unless at least one sparse topology opened strictly
// fewer sockets than the full mesh at P ≥ 8 — the O(P²) → O(P·k) claim,
// gated. With requireBaseline, the absence of a previous snapshot is
// itself an error (CI runs this form, so a deleted baseline cannot
// silently pass).
func runTraffic(dir string, requireBaseline bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	prev, prevPath, err := latestTrafficSnapshot(dir)
	if err != nil {
		return err
	}
	if prev == nil && requireBaseline {
		return fmt.Errorf("no TRAFFIC_*.json baseline in %s; run picbench -traffic without -require-baseline and commit the snapshot", dir)
	}

	cfg, meta := trafficReferenceConfig()
	tracer := comm.NewTracer()
	cfg.Transport = tracer.Wrap
	if _, err := pic.Run(cfg); err != nil {
		return fmt.Errorf("traced reference simulation failed: %v", err)
	}

	totals := tracer.PhaseTotals()
	snap := &trafficSnapshot{
		Schema:    "picpar-traffic/v1",
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Config:    meta,
	}
	for i, c := range totals {
		snap.Phases = append(snap.Phases, trafficPhaseEntry{
			Phase:     machine.Phase(i).String(),
			MsgsSent:  c.MsgsSent,
			BytesSent: c.BytesSent,
			MsgsRecv:  c.MsgsRecv,
			BytesRecv: c.BytesRecv,
		})
	}

	topos, gateErr := measureTopologies()
	snap.Topologies = topos
	fmt.Println("picbench: topology socket/message matrix")
	for _, e := range topos {
		fmt.Printf("  %-16s P=%-3d links %4d  sockets %4d  msgs %6d\n",
			e.Topology, e.P, e.Links, e.Sockets, e.MsgsSent)
	}

	if gateErr != nil {
		return gateErr
	}
	if prev == nil {
		fmt.Println("picbench: no previous traffic snapshot; this run becomes the baseline")
	} else {
		// A failing run must not leave its numbers behind: the newest
		// snapshot is the next run's baseline, so writing first would let
		// the same inflation pass on a second try.
		if err := compareTraffic(prev, snap, prevPath); err != nil {
			return err
		}
		if sameTraffic(prev, snap) {
			fmt.Println("picbench: traffic identical to the baseline; no new snapshot")
			return nil
		}
	}
	path := filepath.Join(dir, "TRAFFIC_"+snap.Date+".json")
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("picbench: traffic snapshot written to %s\n", path)
	return nil
}

// sameTraffic reports whether two snapshots record the same reference run
// and the same totals; the date and toolchain stamps are not compared.
func sameTraffic(a, b *trafficSnapshot) bool {
	return a.Config == b.Config && slices.Equal(a.Phases, b.Phases) && slices.Equal(a.Topologies, b.Topologies)
}

// measureTopologies builds the per-topology socket/message matrix at P=8
// and P=16 on the 2-D reference geometry. Sockets are measured, not
// asserted: a real loopback TCP world is assembled under each descriptor
// and the live connections counted via comm.SocketCount, then checked
// against the descriptor's link count. The returned error is the sparsity
// gate: neighbor-sparse must never open more sockets than the full mesh,
// and strictly fewer at some P ≥ 8. (It does at both: the 2×4 stencil ∪
// collective skeleton leaves 24 of 28 pairs linked at P=8, 80 of 120 at
// P=16.)
func measureTopologies() ([]trafficTopologyEntry, error) {
	var entries []trafficTopologyEntry
	sawSparser := false
	for _, p := range []int{8, 16} {
		base, _ := trafficReferenceConfig()
		base.P = p
		fullSockets := 0
		for _, topo := range []string{pic.TopologyFullMesh, pic.TopologyNeighborSparse} {
			cfg := base
			cfg.Topology = topo
			tp, err := pic.TopologyFor(cfg)
			if err != nil {
				return entries, err
			}
			sockets, err := measureSockets(tp, p)
			if err != nil {
				return entries, err
			}
			msgs, err := traceMsgs(cfg)
			if err != nil {
				return entries, err
			}
			entries = append(entries, trafficTopologyEntry{
				Topology: topo, P: p, Links: tp.NumLinks(), Sockets: sockets, MsgsSent: msgs,
			})
			if sockets != tp.NumLinks() {
				return entries, fmt.Errorf("topology %s at P=%d assembled %d sockets, descriptor has %d links",
					topo, p, sockets, tp.NumLinks())
			}
			if topo == pic.TopologyFullMesh {
				fullSockets = sockets
				continue
			}
			if sockets > fullSockets {
				return entries, fmt.Errorf("topology %s at P=%d opened %d sockets, more than the full mesh's %d",
					topo, p, sockets, fullSockets)
			}
			if sockets < fullSockets {
				sawSparser = true
			}
		}
	}
	if !sawSparser {
		return entries, fmt.Errorf("no sparse topology opened strictly fewer sockets than the full mesh at P >= 8")
	}
	return entries, nil
}

// measureSockets stands up a real loopback TCP world under tp and returns
// the number of distinct live connections (each linked pair shares one
// socket, counted once).
func measureSockets(tp *comm.Topology, p int) (int, error) {
	tmpl := commtest.NetTemplate(machine.CM5())
	tmpl.Topology = tp
	var mu sync.Mutex
	total := 0
	_, errs := comm.LaunchLoopback(tmpl, p, nil, func(tr comm.Transport) {
		comm.Barrier(tr) // every peer finished assembling before counting
		if c, ok := comm.SocketCount(tr); ok {
			mu.Lock()
			total += c
			mu.Unlock()
		}
	})
	for rank, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("socket probe rank %d (%s, P=%d): %v", rank, tp.Name(), p, err)
		}
	}
	return total / 2, nil
}

// traceMsgs runs the reference simulation under cfg's topology with a
// tracer installed and returns the world-total message count.
func traceMsgs(cfg pic.Config) (int64, error) {
	tracer := comm.NewTracer()
	cfg.Transport = tracer.Wrap
	cfg.Watchdog = commtest.DefaultWatchdog // a deadlock names its ranks instead of hanging the gate
	if _, err := pic.Run(cfg); err != nil {
		return 0, fmt.Errorf("traced %s simulation at P=%d failed: %v", cfg.Topology, cfg.P, err)
	}
	return tracer.Total().MsgsSent, nil
}

// latestTrafficSnapshot loads the newest TRAFFIC_*.json in dir (the
// date-stamped names sort chronologically), or nil if none exist.
func latestTrafficSnapshot(dir string) (*trafficSnapshot, string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "TRAFFIC_*.json"))
	if err != nil {
		return nil, "", err
	}
	if len(matches) == 0 {
		return nil, "", nil
	}
	sort.Strings(matches)
	path := matches[len(matches)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var snap trafficSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, "", fmt.Errorf("%s: %v", path, err)
	}
	return &snap, path, nil
}

// compareTraffic fails on any per-phase increase in messages or bytes, in
// either direction of the wire. The simulated transport is deterministic,
// so any inflation is a real change someone must explain — by deleting the
// stale snapshot and committing the new baseline alongside the change that
// caused it.
func compareTraffic(prev, cur *trafficSnapshot, prevPath string) error {
	if prev.Config != cur.Config {
		fmt.Printf("picbench: previous snapshot %s used a different reference config; baseline reset\n", prevPath)
		return nil
	}
	fmt.Printf("picbench: comparing traffic against %s\n", prevPath)
	prevBy := map[string]trafficPhaseEntry{}
	for _, e := range prev.Phases {
		prevBy[e.Phase] = e
	}
	var inflations []string
	for _, e := range cur.Phases {
		p, ok := prevBy[e.Phase]
		if !ok {
			fmt.Printf("  %-14s %6d msgs %10d bytes sent  (new phase)\n", e.Phase, e.MsgsSent, e.BytesSent)
			continue
		}
		fmt.Printf("  %-14s msgs %6d -> %-6d  bytes %10d -> %-10d\n",
			e.Phase, p.MsgsSent, e.MsgsSent, p.BytesSent, e.BytesSent)
		check := func(name string, old, now int64) {
			if now > old {
				inflations = append(inflations,
					fmt.Sprintf("%s %s grew %d -> %d", e.Phase, name, old, now))
			}
		}
		check("msgs_sent", p.MsgsSent, e.MsgsSent)
		check("bytes_sent", p.BytesSent, e.BytesSent)
		check("msgs_recv", p.MsgsRecv, e.MsgsRecv)
		check("bytes_recv", p.BytesRecv, e.BytesRecv)
	}
	prevTopo := map[string]trafficTopologyEntry{}
	for _, e := range prev.Topologies {
		prevTopo[fmt.Sprintf("%s/%d", e.Topology, e.P)] = e
	}
	for _, e := range cur.Topologies {
		key := fmt.Sprintf("%s/%d", e.Topology, e.P)
		p, ok := prevTopo[key]
		if !ok {
			continue // new cell (or pre-topology baseline): nothing to compare
		}
		delete(prevTopo, key)
		if e.Sockets > p.Sockets {
			inflations = append(inflations,
				fmt.Sprintf("%s P=%d sockets grew %d -> %d", e.Topology, e.P, p.Sockets, e.Sockets))
		}
		if e.MsgsSent > p.MsgsSent {
			inflations = append(inflations,
				fmt.Sprintf("%s P=%d msgs_sent grew %d -> %d", e.Topology, e.P, p.MsgsSent, e.MsgsSent))
		}
	}
	// A baseline cell the run no longer measures is reported, not compared:
	// dropping a topology is a deliberate change, but it must show.
	for _, e := range prev.Topologies {
		if _, dropped := prevTopo[fmt.Sprintf("%s/%d", e.Topology, e.P)]; dropped {
			fmt.Printf("  topology %s P=%d dropped (baseline: %d sockets, %d msgs)\n",
				e.Topology, e.P, e.Sockets, e.MsgsSent)
		}
	}
	if len(inflations) > 0 {
		return fmt.Errorf("unexplained traffic inflation:\n  %s", strings.Join(inflations, "\n  "))
	}
	fmt.Println("picbench: no traffic inflation")
	return nil
}
