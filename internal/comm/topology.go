// Topology descriptors: which rank pairs of a world own a direct
// communication link. The descriptor is consulted in two places — the rank
// core enforces it on every Send/Recv of the goroutine World and the TCP
// backend (an out-of-topology message is a typed *TransportError wrapping a
// *TopologyError, never a silent success), and the TCP backend additionally
// consults it at assembly time so a neighbor-sparse world dials O(P·k)
// sockets instead of the O(P²) full mesh.
//
// Every descriptor's link set includes the COLLECTIVE SKELETON: the rank
// pairs at distance ±2^k mod p for 2^k < p. All collectives in this package
// route exclusively over those links (dissemination barrier and binomial
// trees at ±2^k, ring allgather and linear scan at ±1), so every collective
// runs on every topology with a schedule — and therefore modelled τ/μ
// charges — identical to the full mesh. Restricting a topology restricts
// who may exchange bulk point-to-point data, never how the world
// synchronises. At small p the skeleton is itself the full mesh (p ≤ 6);
// sparsity pays off as p grows: the skeleton is O(P·log P) links against
// the mesh's O(P²).

package comm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// Topology names, as reported by Topology.Name and used in diagnostics.
const (
	TopologyFullMesh       = "full-mesh"
	TopologyNeighborSparse = "neighbor-sparse"
)

// ErrOutOfTopology is the sentinel every *TopologyError unwraps to, so
// callers can errors.Is a refused send without matching the formatted text.
var ErrOutOfTopology = errors.New("out of topology")

// TopologyError reports a message (or dial) refused because the two ranks
// own no link under the world's topology. It names the topology and the
// offending rank's full peer set, so a misconfigured sparse world fails
// with an actionable diagnostic instead of a generic connection failure.
type TopologyError struct {
	Topology string // descriptor name
	Rank     int    // the rank attempting the operation
	Peer     int    // the rank it has no link to
	Peers    []int  // Rank's complete peer set under the topology
}

// Error implements error.
func (e *TopologyError) Error() string {
	return fmt.Sprintf("rank %d has no link to rank %d under the %s topology (peers of %d: %v)",
		e.Rank, e.Peer, e.Topology, e.Rank, e.Peers)
}

// Unwrap makes errors.Is(err, ErrOutOfTopology) work.
func (e *TopologyError) Unwrap() error { return ErrOutOfTopology }

// Topology is an immutable link-set descriptor over a world of p ranks.
// Links are undirected and every rank is linked to itself. The zero value
// is not valid; use the constructors. A nil *Topology everywhere means
// "full mesh, unenforced" — the historical any-to-any behaviour.
type Topology struct {
	name  string
	p     int
	conn  []bool  // p×p symmetric adjacency, diagonal true
	peers [][]int // sorted peer lists, self excluded
	full  bool    // every pair linked (enforcement is then a no-op)
}

// newTopology finalises a descriptor from its adjacency matrix: symmetrise,
// set the diagonal, union in the collective skeleton, derive peer lists.
func newTopology(name string, p int, conn []bool) *Topology {
	if p <= 0 {
		panic(fmt.Sprintf("comm: topology %q with p=%d", name, p))
	}
	for i := 0; i < p; i++ {
		conn[i*p+i] = true
		for k := 1; k < p; k <<= 1 {
			conn[i*p+(i+k)%p] = true
			conn[i*p+(i-k+p)%p] = true
		}
	}
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			if conn[a*p+b] || conn[b*p+a] {
				conn[a*p+b] = true
				conn[b*p+a] = true
			}
		}
	}
	tp := &Topology{name: name, p: p, conn: conn, full: true}
	tp.peers = make([][]int, p)
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			if b == a {
				continue
			}
			if conn[a*p+b] {
				tp.peers[a] = append(tp.peers[a], b)
			} else {
				tp.full = false
			}
		}
		sort.Ints(tp.peers[a])
	}
	return tp
}

// NewFullMesh describes the any-to-any topology over p ranks: every pair
// linked. Enforcement never fires; the descriptor exists so the traffic
// accounting has a uniform baseline to compare sparse worlds against.
func NewFullMesh(p int) *Topology {
	conn := make([]bool, p*p)
	for i := range conn {
		conn[i] = true
	}
	return newTopology(TopologyFullMesh, p, conn)
}

// NewNeighborSparse describes the stencil topology: ranks a and b are
// linked iff adjacent(a, b) (the geometry's AdjacentRanks predicate — the
// CIC footprint and halo stencil only ever touch adjacent partitions),
// unioned with the collective skeleton. The predicate is taken as given and
// symmetrised; it is never called for a == b.
func NewNeighborSparse(p int, adjacent func(a, b int) bool) *Topology {
	conn := make([]bool, p*p)
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			if adjacent(a, b) || adjacent(b, a) {
				conn[a*p+b] = true
				conn[b*p+a] = true
			}
		}
	}
	return newTopology(TopologyNeighborSparse, p, conn)
}

// Name returns the descriptor's name ("full-mesh" or "neighbor-sparse").
func (tp *Topology) Name() string { return tp.name }

// Size returns the world size the descriptor was built for.
func (tp *Topology) Size() int { return tp.p }

// IsFullMesh reports whether every pair of ranks is linked (enforcement and
// sparse assembly then degenerate to the historical any-to-any behaviour).
func (tp *Topology) IsFullMesh() bool { return tp.full }

// Connected reports whether ranks a and b own a direct link. Out-of-range
// ranks are unconnected (the transport's own range check fires first with
// its usual diagnostic).
func (tp *Topology) Connected(a, b int) bool {
	if a < 0 || a >= tp.p || b < 0 || b >= tp.p {
		return false
	}
	return tp.conn[a*tp.p+b]
}

// Peers returns rank r's sorted peer list (self excluded). The slice is
// shared: callers must not mutate it.
func (tp *Topology) Peers(r int) []int { return tp.peers[r] }

// NumLinks returns the number of undirected links between distinct ranks —
// exactly the number of TCP connections a world assembled under this
// topology opens (each linked pair shares one socket).
func (tp *Topology) NumLinks() int {
	n := 0
	for a := 0; a < tp.p; a++ {
		n += len(tp.peers[a])
	}
	return n / 2
}

// Digest is a stable fingerprint of the descriptor (name, size, link set).
// The TCP rendezvous requires every rank of a world to present the same
// digest, so a rank assembled with a mismatched topology is rejected at
// registration instead of deadlocking against peers it cannot reach. A nil
// topology's digest is 0 by convention (see NetConfig.Topology).
func (tp *Topology) Digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d:", tp.name, tp.p)
	var acc, nbits byte
	for _, c := range tp.conn {
		acc <<= 1
		if c {
			acc |= 1
		}
		if nbits++; nbits == 8 {
			h.Write([]byte{acc})
			acc, nbits = 0, 0
		}
	}
	if nbits > 0 {
		h.Write([]byte{acc})
	}
	return h.Sum64()
}

// errOutOf builds the typed refusal for a message from rank a to rank b.
func (tp *Topology) errOutOf(a, b int) *TopologyError {
	return &TopologyError{Topology: tp.name, Rank: a, Peer: b, Peers: tp.peers[a]}
}

// topologyDigest is Digest with the nil convention applied.
func topologyDigest(tp *Topology) uint64 {
	if tp == nil {
		return 0
	}
	return tp.Digest()
}
