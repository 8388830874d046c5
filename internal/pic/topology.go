// Topology selection: how Config.Topology maps onto the comm layer's
// descriptors, transports and exchange protocols.
//
//   - "" / "full-mesh": the classic any-to-any world. No descriptor is
//     installed and every exchange keeps its original pairwise protocol, so
//     the default configuration is byte-identical to the pre-topology code.
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
//   - "systolic-ring": the same sparse link set as neighbor-sparse (the
//     scatter/gather stencil cannot ride a bare ring), but every
//     redistribution exchange is the P−1-pulse systolic ring schedule —
//     data-independent and deterministic — instead of direct stencil
//     sends. The pure ring descriptor (comm.NewRing) stays available at
//     the comm layer for protocols whose traffic is ring-shaped.
//   - "hierarchical[:H]": the ranks are grouped onto H hosts (default: the
//     largest divisor of P that is at most √P). Intra-host ranks exchange
//     over in-process channels; each host runs one TCP gateway, so the
//     socket count is per host pair, not per rank pair. Goroutine backend
//     only (pic.Run); the flat TCP backend rejects it.
//
// Physics is identical under every topology: the protocols move the same
// per-(src,dst) payloads, only the message schedule differs.

package pic

import (
	"fmt"
	"strconv"
	"strings"

	"picpar/internal/comm"
	"picpar/internal/geom"
)

// Topology names accepted by Config.Topology.
const (
	TopologyFullMesh       = comm.TopologyFullMesh
	TopologyNeighborSparse = comm.TopologyNeighborSparse
	TopologySystolicRing   = "systolic-ring"
	TopologyHierarchical   = "hierarchical"
)

// parseTopology splits a Config.Topology spec into its kind and, for the
// hierarchical transport, the host count. An empty spec is the full mesh.
func parseTopology(spec string, p int) (kind string, hosts int, err error) {
	switch spec {
	case "", TopologyFullMesh:
		return TopologyFullMesh, 0, nil
	case TopologyNeighborSparse:
		return TopologyNeighborSparse, 0, nil
	case TopologySystolicRing:
		return TopologySystolicRing, 0, nil
	case TopologyHierarchical:
		return TopologyHierarchical, autoHosts(p), nil
	}
	if rest, ok := strings.CutPrefix(spec, TopologyHierarchical+":"); ok {
		h, perr := strconv.Atoi(rest)
		if perr != nil || h <= 0 {
			return "", 0, fmt.Errorf("pic: bad host count in topology %q", spec)
		}
		if p%h != 0 {
			return "", 0, fmt.Errorf("pic: topology %q: %d hosts do not divide P=%d", spec, h, p)
		}
		return TopologyHierarchical, h, nil
	}
	return "", 0, fmt.Errorf("pic: unknown topology %q (want %s, %s, %s or %s[:hosts])",
		spec, TopologyFullMesh, TopologyNeighborSparse, TopologySystolicRing, TopologyHierarchical)
}

// autoHosts picks the default host count for the hierarchical transport:
// the largest divisor of p not exceeding √p, so hosts and ranks-per-host
// stay as balanced as a divisor split allows.
func autoHosts(p int) int {
	best := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			best = d
		}
	}
	return best
}

// TopologyFor builds the comm.Topology descriptor the configuration's
// topology names, sized for cfg.P — what the TCP backend assembles its
// socket mesh from (comm.NetConfig.Topology). The hierarchical transport
// has no flat descriptor (it swaps the transport itself, see pic.Run) and
// is rejected.
func TopologyFor(cfg Config) (*comm.Topology, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	kind, _, err := parseTopology(cfg.Topology, cfg.P)
	if err != nil {
		return nil, err
	}
	switch kind {
	case TopologyFullMesh:
		return comm.NewFullMesh(cfg.P), nil
	case TopologyNeighborSparse, TopologySystolicRing:
		// Both sparse modes assemble the stencil ∪ skeleton link set; they
		// differ in the protocol run over it, not in the sockets dialed.
		ge, gerr := newGeometry(cfg)
		if gerr != nil {
			return nil, gerr
		}
		return comm.NewNeighborSparse(cfg.P, ge.AdjacentRanks), nil
	}
	return nil, fmt.Errorf("pic: the %s topology has no flat descriptor (it replaces the transport; use pic.Run)", kind)
}

// topoPlan is the resolved topology selection of one run: the descriptor
// to enforce (nil: none) and the exchange protocols for the two
// redistribution regimes.
type topoPlan struct {
	kind  string
	hosts int
	// topo, when non-nil, is installed on the goroutine world
	// (comm.World.SetTopology) so every out-of-topology send panics with a
	// typed error — proof the whole simulation respects the link set.
	topo *comm.Topology
	// bootEx routes the initial distribution's any-to-any exchanges
	// (dealing, sample sort). Under sparse topologies it is the systolic
	// protocol: the initial population is arbitrarily scattered, so the
	// stencil cannot carry it, but the ring skeleton always can.
	bootEx *comm.Exchanger
	// dataEx routes the steady-state redistribution and migration
	// exchanges: the hybrid sparse protocol under neighbor-sparse (direct
	// stencil sends, systolic relay for the far payloads a decoupled
	// repartition creates), systolic under the ring.
	dataEx *comm.Exchanger
}

// buildTopoPlan resolves cfg.Topology against the run's geometry. The
// configuration must already be validated.
func buildTopoPlan(cfg Config, ge geom.Geometry) (topoPlan, error) {
	kind, hosts, err := parseTopology(cfg.Topology, cfg.P)
	if err != nil {
		return topoPlan{}, err
	}
	pl := topoPlan{kind: kind, hosts: hosts}
	switch kind {
	case TopologyNeighborSparse:
		pl.topo = comm.NewNeighborSparse(cfg.P, ge.AdjacentRanks)
		pl.bootEx = comm.NewSystolicExchanger()
		pl.dataEx = comm.NewSparseExchanger(pl.topo)
	case TopologySystolicRing:
		pl.topo = comm.NewNeighborSparse(cfg.P, ge.AdjacentRanks)
		pl.bootEx = comm.NewSystolicExchanger()
		pl.dataEx = comm.NewSystolicExchanger()
	}
	return pl, nil
}
