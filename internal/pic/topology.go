// Topology selection: how Config.Topology maps onto the comm layer's
// descriptors and exchange protocols. A spelling names a link set and
// nothing else; there are two.
//
//   - "" / "full-mesh": the classic any-to-any world. Its descriptor links
//     every pair, so enforcement never fires, the steady-state hybrid
//     protocol below never relays, and every exchange sends the classic
//     pairwise messages; the initial distribution keeps the pairwise
//     protocol too.
//   - "neighbor-sparse": links exist only between spatially adjacent ranks
//     (the halo/CIC stencil, geom.AdjacentRanks) plus the collective
//     skeleton. Steady-state traffic runs the hybrid sparse protocol:
//     direct sends between linked ranks on the classic schedule, plus a
//     systolic relay pass — only on iterations whose traffic table shows
//     unlinked pairs exchanging data, which happens when a cost-weighted
//     repartition decouples the particle partition from the mesh blocks.
//     The initial any-to-any distribution pulses around the ring
//     (systolic), which uses skeleton links only. A direct send outside
//     the link set fails with a typed comm.ErrOutOfTopology error rather
//     than silently widening the stencil.
//
// What the choice changes: both protocols deliver the same per-(src,dst)
// payloads, so charge and particle count are conserved under either, and a
// run whose timed loop never needs the relay charges the same simulated
// times under both (the goldens are static runs of that kind). The relay
// is extra messages, so TotalTime differs whenever it fires. When the
// layout reads the simulated clock — the cost-weighted strategy prices
// cells from measured times — those different charges steer the
// repartition, and the final state differs too.

package pic

import (
	"fmt"

	"picpar/internal/comm"
	"picpar/internal/geom"
)

// Topology names accepted by Config.Topology.
const (
	TopologyFullMesh       = comm.TopologyFullMesh
	TopologyNeighborSparse = comm.TopologyNeighborSparse
)

// parseTopology maps a Config.Topology spec onto its kind. An empty spec is
// the full mesh.
func parseTopology(spec string) (string, error) {
	switch spec {
	case "", TopologyFullMesh:
		return TopologyFullMesh, nil
	case TopologyNeighborSparse:
		return TopologyNeighborSparse, nil
	}
	return "", fmt.Errorf("pic: unknown topology %q (want %s or %s)",
		spec, TopologyFullMesh, TopologyNeighborSparse)
}

// TopologyFor builds the comm.Topology descriptor the configuration's
// topology names, sized for cfg.P — what the TCP backend assembles its
// socket mesh from (comm.NetConfig.Topology).
func TopologyFor(cfg Config) (*comm.Topology, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ge, err := newGeometry(cfg)
	if err != nil {
		return nil, err
	}
	pl, err := buildTopoPlan(cfg, ge)
	return pl.topo, err
}

// topoPlan is the resolved topology selection of one run: the descriptor
// to enforce and the exchange protocols for the two redistribution regimes.
type topoPlan struct {
	// topo is installed on the goroutine world (comm.World.SetTopology) so
	// every out-of-topology send panics with a typed error — proof the whole
	// simulation respects the link set.
	topo *comm.Topology
	// bootEx routes the initial distribution's any-to-any exchanges
	// (dealing, sample sort): nil (the classic pairwise protocol) on the
	// full mesh, the systolic protocol under neighbor-sparse — the initial
	// population is arbitrarily scattered, so the stencil cannot carry it,
	// but the ring skeleton always can.
	bootEx *comm.Exchanger
	// dataEx routes the steady-state redistribution and migration
	// exchanges: the hybrid sparse protocol (direct stencil sends, systolic
	// relay for the far payloads a decoupled repartition creates).
	dataEx *comm.Exchanger
}

// buildTopoPlan resolves cfg.Topology against the run's geometry.
func buildTopoPlan(cfg Config, ge geom.Geometry) (topoPlan, error) {
	kind, err := parseTopology(cfg.Topology)
	if err != nil {
		return topoPlan{}, err
	}
	if kind == TopologyFullMesh {
		topo := comm.NewFullMesh(cfg.P)
		return topoPlan{topo: topo, dataEx: comm.NewSparseExchanger(topo)}, nil
	}
	topo := comm.NewNeighborSparse(cfg.P, ge.AdjacentRanks)
	return topoPlan{topo: topo, bootEx: comm.NewSystolicExchanger(), dataEx: comm.NewSparseExchanger(topo)}, nil
}
