// Package partition implements the domain partitioning strategies the paper
// analyses in Table 1 — Grid, Particle, and Independent partitioning — over
// the space-filling-curve keys ("particle indexing") the geometry assigns,
// which align particle subdomains with mesh subdomains.
//
// The full simulation (internal/pic) always uses Independent partitioning
// with direct Lagrangian particle movement, the combination the paper
// argues is the only scalable one; this package additionally provides the
// alternatives and the quality metrics (load imbalance, ghost counts,
// communication locality) that reproduce Table 1 quantitatively.
package partition

import (
	"fmt"
	"slices"
	"sort"

	"picpar/internal/geom"
	"picpar/internal/mesh"
	"picpar/internal/particle"
)

// Strategy selects one of the paper's three domain partitioning strategies.
type Strategy int

// The three strategies of Table 1.
const (
	StrategyGrid Strategy = iota
	StrategyParticle
	StrategyIndependent
)

func (s Strategy) String() string {
	switch s {
	case StrategyGrid:
		return "grid"
	case StrategyParticle:
		return "particle"
	case StrategyIndependent:
		return "independent"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Layout is a concrete global partition: an owner rank per particle and an
// owner rank per grid point (indexed by the geometry's global point id).
type Layout struct {
	Particles []int // particle -> rank
	Points    []int // grid point -> rank
}

// blockPoints returns the owner of every grid point under the geometry's
// BLOCK distribution.
func blockPoints(ge geom.Geometry) []int {
	pts := make([]int, ge.NumPoints())
	for gid := range pts {
		pts[gid] = ge.OwnerOfPoint(gid)
	}
	return pts
}

// Build computes the layout of the given strategy for the current particle
// positions under the 2-D geometry of Table 1: its BLOCK distribution
// defines the grid blocks and its indexer the particle ordering.
// StrategyIndependent is BuildIndependent's layout, which refreshes the
// store's keys.
func Build(strategy Strategy, ge *geom.G2, s *particle.Store) (*Layout, error) {
	switch strategy {
	case StrategyGrid:
		// Grid points by BLOCK; particles follow their cell.
		l := &Layout{Particles: make([]int, s.Len()), Points: blockPoints(ge)}
		for i := range l.Particles {
			l.Particles[i] = ge.OwnerOfParticle(s, i)
		}
		return l, nil
	case StrategyParticle:
		// Particles into p equal-count groups by SFC key; grid points follow
		// the key ranges of the groups (a point goes with the cell whose
		// lower corner it is).
		keys := make([]float64, s.Len())
		for i := range keys {
			keys[i] = float64(ge.CellKey(s, i))
		}
		sorted := slices.Clone(keys)
		sort.Float64s(sorted)
		p, n := ge.Ranks(), len(sorted)
		splits := make([]float64, p-1) // first key of group k+1
		for k := range splits {
			_, hi := mesh.BlockRange(n, p, k)
			if hi < n {
				splits[k] = sorted[hi]
			} else if n > 0 {
				splits[k] = sorted[n-1] + 1
			}
		}
		assignByKey := func(key float64) int {
			r := sort.SearchFloat64s(splits, key)
			// Keys equal to a split belong to the later group, matching the
			// half-open group ranges.
			for r < len(splits) && splits[r] == key {
				r++
			}
			return r
		}
		l := &Layout{Particles: make([]int, n), Points: make([]int, ge.NumPoints())}
		for i, key := range keys {
			l.Particles[i] = assignByKey(key)
		}
		for gid := range l.Points {
			ci, cj := ge.G.PointCoords(gid)
			l.Points[gid] = assignByKey(float64(ge.Ix.Index(ci, cj)))
		}
		return l, nil
	case StrategyIndependent:
		return BuildIndependent(ge, s), nil
	}
	return nil, fmt.Errorf("partition: unknown strategy %v", strategy)
}

// Quality quantifies a layout for the current particle positions,
// reproducing the qualitative rows of Table 1 as measured numbers.
type Quality struct {
	// ParticleImbalance is max particles per rank divided by the mean
	// (1.0 = perfectly balanced "particle calculation" load).
	ParticleImbalance float64
	// GridImbalance is max grid points per rank divided by the mean
	// (field-solve load).
	GridImbalance float64
	// MaxGhostPoints is the largest number of unique off-processor grid
	// points any rank's particles touch (scatter-phase traffic ∝ this).
	MaxGhostPoints int
	// TotalGhostPoints sums ghost points over ranks.
	TotalGhostPoints int
	// MaxPartners is the largest number of distinct communication partner
	// ranks any rank has in the scatter phase.
	MaxPartners int
	// NonLocalFraction is the fraction of ghost points owned by ranks that
	// are not neighbours (diagonals included) of the accessing rank on the
	// geometry's processor grid ("local" vs "non-local" communication in
	// Table 1).
	NonLocalFraction float64
	// WeightedImbalance is max weighted load per rank divided by the mean,
	// where each particle contributes the weight of its cell. Without a
	// weight function it coincides with ParticleImbalance.
	WeightedImbalance float64
}

// Measure computes Quality for layout l at the particles' current
// positions under ge, in any dimensionality: per-rank ghost points of the
// CIC footprint against the layout's point owners, partner counts, and the
// local/non-local communication split under the geometry's neighbour
// stencil. A non-nil wf also sets WeightedImbalance to the max/mean
// per-rank cumulative weight, each particle contributing its cell's weight.
func Measure(ge geom.Geometry, l *Layout, s *particle.Store, wf WeightFunc) Quality {
	p := ge.Ranks()
	partCount := make([]int, p)
	for _, r := range l.Particles {
		partCount[r]++
	}
	pointCount := make([]int, p)
	for _, r := range l.Points {
		pointCount[r]++
	}

	// Unique grid points touched per rank: set of (point, rank).
	ghost := make([]map[int]bool, p)
	for r := range ghost {
		ghost[r] = make(map[int]bool)
	}
	var fp geom.Footprint
	for i := 0; i < s.Len(); i++ {
		r := l.Particles[i]
		ge.Footprint(s, i, &fp)
		for k := 0; k < fp.N; k++ {
			gid := int(fp.Gid[k])
			if l.Points[gid] != r {
				ghost[r][gid] = true
			}
		}
	}

	var q Quality
	q.ParticleImbalance = imbalance(partCount)
	q.WeightedImbalance = q.ParticleImbalance // unit weights
	q.GridImbalance = imbalance(pointCount)
	nonLocal := 0
	for r := 0; r < p; r++ {
		if len(ghost[r]) > q.MaxGhostPoints {
			q.MaxGhostPoints = len(ghost[r])
		}
		q.TotalGhostPoints += len(ghost[r])
		owners := map[int]bool{}
		for gid := range ghost[r] {
			o := l.Points[gid]
			owners[o] = true
			if !ge.AdjacentRanks(r, o) {
				nonLocal++
			}
		}
		if len(owners) > q.MaxPartners {
			q.MaxPartners = len(owners)
		}
	}
	if q.TotalGhostPoints > 0 {
		q.NonLocalFraction = float64(nonLocal) / float64(q.TotalGhostPoints)
	}
	if wf != nil {
		loads := make([]float64, p)
		for i, r := range l.Particles {
			loads[r] += sanitizeWeight(wf(ge.CellKey(s, i)))
		}
		q.WeightedImbalance = imbalanceF(loads)
	}
	return q
}

func imbalance(counts []int) float64 {
	total, max := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(counts))
	return float64(max) / mean
}
