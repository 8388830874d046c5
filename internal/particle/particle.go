// Package particle provides the particle array of the PIC problem: a
// structure-of-arrays store for relativistic charged particles, plus the
// initial-distribution generators used by the paper's experiments (uniform
// and centre-concentrated irregular) and by the examples (two-stream, beam).
//
// Particles carry positions (x, y), relativistic momenta (px, py, pz) in
// units of m·c, a stable global id, and a sort key — the space-filling-curve
// index of the particle's cell — maintained by the distribution and
// redistribution algorithms.
package particle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// WireFloats is the number of float64 words one two-dimensional particle
// occupies in a message: x, y, px, py, pz, id, key. Three-dimensional
// particles additionally carry z; use Store.WireFloats for the layout of a
// concrete store.
const WireFloats = 7

// Store holds particles of one species in structure-of-arrays layout.
// All slices always have equal length. Z is nil for two-dimensional
// populations and present (same length as X) for three-dimensional ones —
// the store's dimensionality is fixed at construction and preserved by
// every operation, including the wire format.
type Store struct {
	X, Y       []float64 // positions, in physical domain coordinates
	Z          []float64 // third position axis; nil for 2-D stores
	Px, Py, Pz []float64 // momenta / (m c)
	ID         []float64 // stable global id (integral values)
	Key        []float64 // SFC cell index used for ordering (integral values)

	// Charge and Mass are per-species constants (macroparticle weight is
	// folded into Charge).
	Charge, Mass float64
}

// NewStore returns an empty 2-D store with capacity for n particles and
// the given species constants.
func NewStore(n int, charge, mass float64) *Store {
	return &Store{
		X:      make([]float64, 0, n),
		Y:      make([]float64, 0, n),
		Px:     make([]float64, 0, n),
		Py:     make([]float64, 0, n),
		Pz:     make([]float64, 0, n),
		ID:     make([]float64, 0, n),
		Key:    make([]float64, 0, n),
		Charge: charge,
		Mass:   mass,
	}
}

// NewStore3 returns an empty 3-D store (with a Z axis) with capacity for n
// particles.
func NewStore3(n int, charge, mass float64) *Store {
	s := NewStore(n, charge, mass)
	s.Z = make([]float64, 0, n)
	return s
}

// NewLike returns an empty store of the same dimensionality and species
// constants as s, with capacity for n particles. All code that creates
// scratch or output stores for an existing population must use this so 3-D
// particles never silently lose their Z axis.
func (s *Store) NewLike(n int) *Store {
	if s.Z != nil {
		return NewStore3(n, s.Charge, s.Mass)
	}
	return NewStore(n, s.Charge, s.Mass)
}

// Dims returns the spatial dimensionality of the store (2 or 3).
func (s *Store) Dims() int {
	if s.Z != nil {
		return 3
	}
	return 2
}

// WireFloats returns the number of float64 words one particle of this
// store occupies in a message: 7 for 2-D (x, y, px, py, pz, id, key),
// 8 for 3-D (z travels after y).
func (s *Store) WireFloats() int {
	if s.Z != nil {
		return WireFloats + 1
	}
	return WireFloats
}

// Len returns the number of particles.
func (s *Store) Len() int { return len(s.X) }

// Append adds one particle.
func (s *Store) Append(x, y, px, py, pz, id float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Px = append(s.Px, px)
	s.Py = append(s.Py, py)
	s.Pz = append(s.Pz, pz)
	s.ID = append(s.ID, id)
	s.Key = append(s.Key, 0)
}

// Append3 adds one 3-D particle. The store must have been created with
// NewStore3.
func (s *Store) Append3(x, y, z, px, py, pz, id float64) {
	s.Append(x, y, px, py, pz, id)
	s.Z = append(s.Z, z)
}

// AppendFrom copies particle i of src (all fields, including the sort key)
// onto the end of s. Hot paths copy in bulk with AppendRange or
// AppendIndices instead.
func (s *Store) AppendFrom(src *Store, i int) {
	s.X = append(s.X, src.X[i])
	s.Y = append(s.Y, src.Y[i])
	if s.Z != nil {
		s.Z = append(s.Z, src.Z[i])
	}
	s.Px = append(s.Px, src.Px[i])
	s.Py = append(s.Py, src.Py[i])
	s.Pz = append(s.Pz, src.Pz[i])
	s.ID = append(s.ID, src.ID[i])
	s.Key = append(s.Key, src.Key[i])
}

// columnPairs returns pointers to the columns of s and to the same columns
// of o, in s's layout (Z included for 3-D stores), and how many there are.
func columnPairs(s, o *Store) (a, b [8]*[]float64, n int) {
	a = [8]*[]float64{&s.X, &s.Y, &s.Px, &s.Py, &s.Pz, &s.ID, &s.Key, &s.Z}
	b = [8]*[]float64{&o.X, &o.Y, &o.Px, &o.Py, &o.Pz, &o.ID, &o.Key, &o.Z}
	n = 7
	if s.Z != nil {
		n = 8
	}
	return a, b, n
}

// eachColumn calls f on every column of s paired with the same column of
// src, Z included for 3-D stores.
func (s *Store) eachColumn(src *Store, f func(dst *[]float64, src []float64)) {
	a, b, n := columnPairs(s, src)
	for k := 0; k < n; k++ {
		f(a[k], *b[k])
	}
}

// Grow ensures room for n more particles, so the next n appended
// particles reallocate no column (slices.Grow: an empty store grows to an
// exact fit).
func (s *Store) Grow(n int) {
	s.eachColumn(s, func(d *[]float64, _ []float64) { *d = slices.Grow(*d, n) })
}

// AppendRange copies particles [lo, hi) of src onto the end of s, one bulk
// copy per column.
func (s *Store) AppendRange(src *Store, lo, hi int) {
	s.eachColumn(src, func(d *[]float64, c []float64) { *d = append(*d, c[lo:hi]...) })
}

// AppendIndices copies the particles of src at the given indices, in that
// order, onto the end of s: one gather per column, each grown once.
func (s *Store) AppendIndices(src *Store, idx []int) {
	s.eachColumn(src, func(d *[]float64, c []float64) {
		n := len(*d)
		out := slices.Grow(*d, len(idx))[:n+len(idx)]
		for k, i := range idx {
			out[n+k] = c[i]
		}
		*d = out
	})
}

// Swap exchanges particles i and j (sort support).
func (s *Store) Swap(i, j int) {
	s.X[i], s.X[j] = s.X[j], s.X[i]
	s.Y[i], s.Y[j] = s.Y[j], s.Y[i]
	if s.Z != nil {
		s.Z[i], s.Z[j] = s.Z[j], s.Z[i]
	}
	s.Px[i], s.Px[j] = s.Px[j], s.Px[i]
	s.Py[i], s.Py[j] = s.Py[j], s.Py[i]
	s.Pz[i], s.Pz[j] = s.Pz[j], s.Pz[i]
	s.ID[i], s.ID[j] = s.ID[j], s.ID[i]
	s.Key[i], s.Key[j] = s.Key[j], s.Key[i]
}

// Less orders by sort key (ties broken by id for determinism).
func (s *Store) Less(i, j int) bool {
	if s.Key[i] != s.Key[j] {
		return s.Key[i] < s.Key[j]
	}
	return s.ID[i] < s.ID[j]
}

// ApplyPermutation reorders the store so that position i holds the particle
// previously at perm[i], with one out-of-place gather per column instead of
// O(n log n) element swaps. perm must be a permutation of 0..Len()−1. The
// gathers write into spare's arrays, which then trade places with the
// store's: afterwards spare holds the store's previous arrays, so a caller
// that keeps one spare store sorts repeatedly without allocating. A nil
// spare gathers into fresh arrays.
func (s *Store) ApplyPermutation(perm []int32, spare *Store) {
	n := s.Len()
	if len(perm) != n {
		panic(fmt.Sprintf("particle: ApplyPermutation perm len %d, store len %d", len(perm), n))
	}
	if spare == nil {
		spare = s.NewLike(n)
	}
	a, b, cols := columnPairs(s, spare)
	for k := 0; k < cols; k++ {
		src, dst := *a[k], slices.Grow((*b[k])[:0], n)[:n]
		for i, p := range perm {
			dst[i] = src[p]
		}
		*a[k], *b[k] = dst, src
	}
}

// Truncate shrinks the store to n particles.
func (s *Store) Truncate(n int) {
	s.eachColumn(s, func(d *[]float64, _ []float64) { *d = (*d)[:n] })
}

// Clone returns a deep copy.
func (s *Store) Clone() *Store {
	c := s.NewLike(s.Len())
	c.AppendRange(s, 0, s.Len())
	return c
}

// MarshalRange appends particles [lo, hi) to dst in wire layout for
// transmission and returns the extended slice. 3-D stores emit z after y.
func (s *Store) MarshalRange(dst []float64, lo, hi int) []float64 {
	if s.Z != nil {
		for i := lo; i < hi; i++ {
			dst = append(dst, s.X[i], s.Y[i], s.Z[i], s.Px[i], s.Py[i], s.Pz[i], s.ID[i], s.Key[i])
		}
		return dst
	}
	for i := lo; i < hi; i++ {
		dst = append(dst, s.X[i], s.Y[i], s.Px[i], s.Py[i], s.Pz[i], s.ID[i], s.Key[i])
	}
	return dst
}

// MarshalIndices appends the particles at the given indices to dst, as
// MarshalRange does.
func (s *Store) MarshalIndices(dst []float64, idx []int) []float64 {
	if s.Z != nil {
		for _, i := range idx {
			dst = append(dst, s.X[i], s.Y[i], s.Z[i], s.Px[i], s.Py[i], s.Pz[i], s.ID[i], s.Key[i])
		}
		return dst
	}
	for _, i := range idx {
		dst = append(dst, s.X[i], s.Y[i], s.Px[i], s.Py[i], s.Pz[i], s.ID[i], s.Key[i])
	}
	return dst
}

// AppendWire unpacks particles previously packed with MarshalRange by a
// store of the same dimensionality.
func (s *Store) AppendWire(wire []float64) error {
	wf := s.WireFloats()
	if len(wire)%wf != 0 {
		return fmt.Errorf("particle: wire length %d not a multiple of %d", len(wire), wf)
	}
	s.Grow(len(wire) / wf)
	if s.Z != nil {
		for i := 0; i < len(wire); i += wf {
			s.X = append(s.X, wire[i])
			s.Y = append(s.Y, wire[i+1])
			s.Z = append(s.Z, wire[i+2])
			s.Px = append(s.Px, wire[i+3])
			s.Py = append(s.Py, wire[i+4])
			s.Pz = append(s.Pz, wire[i+5])
			s.ID = append(s.ID, wire[i+6])
			s.Key = append(s.Key, wire[i+7])
		}
		return nil
	}
	for i := 0; i < len(wire); i += wf {
		s.X = append(s.X, wire[i])
		s.Y = append(s.Y, wire[i+1])
		s.Px = append(s.Px, wire[i+2])
		s.Py = append(s.Py, wire[i+3])
		s.Pz = append(s.Pz, wire[i+4])
		s.ID = append(s.ID, wire[i+5])
		s.Key = append(s.Key, wire[i+6])
	}
	return nil
}

// Gamma returns the Lorentz factor of particle i.
func (s *Store) Gamma(i int) float64 {
	p2 := s.Px[i]*s.Px[i] + s.Py[i]*s.Py[i] + s.Pz[i]*s.Pz[i]
	return math.Sqrt(1 + p2)
}

// KineticEnergy returns the total kinetic energy Σ m(γ−1) (c=1).
func (s *Store) KineticEnergy() float64 {
	e := 0.0
	for i := range s.X {
		e += s.Mass * (s.Gamma(i) - 1)
	}
	return e
}

// Distribution names accepted by Generate.
const (
	DistUniform   = "uniform"
	DistIrregular = "irregular"
	DistTwoStream = "twostream"
	DistBeam      = "beam"
	// DistSpike puts four fifths of the particles in a very tight off-centre
	// Gaussian spike (σ = 0.03·L at (0.7·Lx, 0.3·Ly)) over a uniform
	// background — the skewed workload where the equal-count split piles the
	// spike's cells onto few ranks and cost weighting pays off.
	DistSpike = "spike"
	// DistCollapse starts uniform with momenta aimed at the domain centre:
	// an initially balanced population that collapses into a dense core,
	// growing the imbalance over time — the adaptive policy's cue to switch
	// strategy mid-run.
	DistCollapse = "collapse"
)

// Config parameterises particle generation. Lz == 0 asks for a 2-D
// population; a positive Lz for a 3-D one. Positions are drawn axis by
// axis (x, y, then z), then the momenta, so each dimensionality's random
// stream stays frozen.
type Config struct {
	N            int     // total particle count
	Lx, Ly, Lz   float64 // physical domain size; Lz == 0 for 2-D
	Distribution string
	Seed         int64
	Thermal      float64 // thermal momentum spread (p/mc); default 0.05
	Drift        float64 // drift momentum for twostream/beam; default 0.2
	// Sigma is the Gaussian std-dev as a fraction of the domain for the
	// irregular distribution; default 0.1 (highly concentrated, as in the
	// paper's Figure 15).
	Sigma float64
	// Charge and Mass default to −1 and 1 (electrons, normalised units).
	Charge, Mass float64
}

func (c Config) withDefaults() Config {
	if c.Thermal == 0 {
		c.Thermal = 0.05
	}
	if c.Drift == 0 {
		c.Drift = 0.2
	}
	if c.Sigma == 0 {
		c.Sigma = 0.1
	}
	if c.Charge == 0 {
		c.Charge = -1
	}
	if c.Mass == 0 {
		c.Mass = 1
	}
	return c
}

// Generator emits a population in id order, from one random stream: every
// Fill appends the next run of ids, so a population filled in chunks is bit
// for bit the one a single Generate call makes. Each distribution is one
// emit function, shared by both and by both dimensionalities.
type Generator struct {
	next int
	emit func(s *Store, i int)
	cfg  Config
	dims int
	l    [3]float64 // domain extent per axis
	rng  *rand.Rand
}

// Fill appends the next n particles of the population to s, which must
// have the generator's dimensionality.
func (g *Generator) Fill(s *Store, n int) {
	s.Grow(n)
	for end := g.next + n; g.next < end; g.next++ {
		g.emit(s, g.next)
	}
}

// Generate creates the global particle population for a simulation.
func Generate(cfg Config) (*Store, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	var s *Store
	if g.dims == 3 {
		s = NewStore3(cfg.N, g.cfg.Charge, g.cfg.Mass)
	} else {
		s = NewStore(cfg.N, g.cfg.Charge, g.cfg.Mass)
	}
	g.Fill(s, cfg.N)
	return s, nil
}

// NewGenerator returns the generator of the population cfg describes.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 0 || cfg.Lx <= 0 || cfg.Ly <= 0 || cfg.Lz < 0 {
		return nil, fmt.Errorf("particle: invalid config n=%d domain=%gx%gx%g", cfg.N, cfg.Lx, cfg.Ly, cfg.Lz)
	}
	g := &Generator{cfg: cfg, dims: 2, l: [3]float64{cfg.Lx, cfg.Ly, cfg.Lz},
		rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Lz > 0 {
		g.dims = 3
	}
	switch cfg.Distribution {
	case DistUniform, "":
		g.emit = func(s *Store, i int) {
			var x [3]float64
			g.uniform(&x)
			g.put(s, i, &x, g.thermal(), g.thermal(), g.thermal())
		}
	case DistIrregular:
		// Truncated Gaussian concentrated at the domain centre: the
		// paper's "irregularly distributed particles ... concentrated in
		// the center of the domain".
		g.emit = func(s *Store, i int) {
			var x [3]float64
			g.gauss(&x, [3]float64{0.5, 0.5, 0.5}, cfg.Sigma)
			g.put(s, i, &x, g.thermal(), g.thermal(), g.thermal())
		}
	case DistTwoStream:
		g.emit = func(s *Store, i int) {
			drift := cfg.Drift
			if i%2 == 1 {
				drift = -cfg.Drift
			}
			var x [3]float64
			g.uniform(&x)
			g.put(s, i, &x, drift+g.thermal(), g.thermal(), g.thermal())
		}
	case DistBeam:
		// A compact beam near the left edge drifting right: the moving
		// hot-spot workload that makes redistribution matter most.
		g.emit = func(s *Store, i int) {
			var x [3]float64
			g.gauss(&x, [3]float64{0.15, 0.5, 0.5}, cfg.Sigma)
			g.put(s, i, &x, cfg.Drift+g.thermal(), g.thermal(), g.thermal())
		}
	case DistSpike:
		g.emit = func(s *Store, i int) {
			var x [3]float64
			if i%5 == 0 { // uniform background, every fifth particle
				g.uniform(&x)
			} else {
				g.gauss(&x, [3]float64{0.7, 0.3, 0.5}, 0.03)
			}
			g.put(s, i, &x, g.thermal(), g.thermal(), g.thermal())
		}
	case DistCollapse:
		g.emit = func(s *Store, i int) {
			var x [3]float64
			g.uniform(&x)
			dx, dy, dz := g.l[0]/2-x[0], g.l[1]/2-x[1], g.l[2]/2-x[2]
			var norm float64
			if g.dims == 3 {
				norm = math.Sqrt(dx*dx + dy*dy + dz*dz)
			} else {
				norm = math.Hypot(dx, dy)
			}
			if norm == 0 {
				norm = 1
			}
			px := cfg.Drift*dx/norm + g.thermal()
			py := cfg.Drift*dy/norm + g.thermal()
			pz := g.thermal()
			if g.dims == 3 {
				pz += cfg.Drift * dz / norm
			}
			g.put(s, i, &x, px, py, pz)
		}
	default:
		return nil, fmt.Errorf("particle: unknown distribution %q", cfg.Distribution)
	}
	return g, nil
}

// uniform draws x axis by axis, uniformly over the domain.
func (g *Generator) uniform(x *[3]float64) {
	for k := 0; k < g.dims; k++ {
		x[k] = g.rng.Float64() * g.l[k]
	}
}

// gauss draws x axis by axis from Gaussians centred at the domain fractions
// c with std-dev sigma·L, truncated to the domain.
func (g *Generator) gauss(x *[3]float64, c [3]float64, sigma float64) {
	for k := 0; k < g.dims; k++ {
		x[k] = gaussInDomain(g.rng, c[k]*g.l[k], sigma*g.l[k], g.l[k])
	}
}

// thermal draws one thermal momentum component.
func (g *Generator) thermal() float64 { return g.rng.NormFloat64() * g.cfg.Thermal }

// put appends particle i at x with momentum (px, py, pz).
func (g *Generator) put(s *Store, i int, x *[3]float64, px, py, pz float64) {
	if g.dims == 3 {
		s.Append3(x[0], x[1], x[2], px, py, pz, float64(i))
		return
	}
	s.Append(x[0], x[1], px, py, pz, float64(i))
}

// gaussInDomain samples a Gaussian and resamples until it lands inside
// [0, l) — truncation rather than wrapping, so the concentration shape is
// preserved.
func gaussInDomain(rng *rand.Rand, mean, sigma, l float64) float64 {
	for {
		v := mean + rng.NormFloat64()*sigma
		if v >= 0 && v < l {
			return v
		}
	}
}
