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

// WireBytes is the modelled wire size of one 2-D particle.
const WireBytes = WireFloats * 8

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

// eachColumn calls f on every column of s paired with the same column of
// src, Z included for 3-D stores.
func (s *Store) eachColumn(src *Store, f func(dst *[]float64, src []float64)) {
	f(&s.X, src.X)
	f(&s.Y, src.Y)
	if s.Z != nil {
		f(&s.Z, src.Z)
	}
	f(&s.Px, src.Px)
	f(&s.Py, src.Py)
	f(&s.Pz, src.Pz)
	f(&s.ID, src.ID)
	f(&s.Key, src.Key)
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

// Scratch holds the reusable destination arrays of ApplyPermutation. The
// zero value is ready to use; arrays grow on demand and are retained (the
// store's previous arrays swap into the scratch), so repeated sorts of
// similar-sized stores allocate nothing.
type Scratch struct {
	x, y, z, px, py, pz, id, key []float64
}

func (sc *Scratch) grow(n int, withZ bool) {
	if cap(sc.x) < n {
		sc.x = make([]float64, n)
		sc.y = make([]float64, n)
		sc.px = make([]float64, n)
		sc.py = make([]float64, n)
		sc.pz = make([]float64, n)
		sc.id = make([]float64, n)
		sc.key = make([]float64, n)
	}
	if withZ && cap(sc.z) < n {
		sc.z = make([]float64, n)
	}
	sc.x = sc.x[:n]
	sc.y = sc.y[:n]
	sc.px = sc.px[:n]
	sc.py = sc.py[:n]
	sc.pz = sc.pz[:n]
	sc.id = sc.id[:n]
	sc.key = sc.key[:n]
	if withZ {
		sc.z = sc.z[:n]
	}
}

// ApplyPermutation reorders the store so that position i holds the particle
// previously at perm[i], for all 7 SoA fields, using a single out-of-place
// gather per field instead of O(n log n) element swaps. perm must be a
// permutation of 0..Len()−1. scr provides the destination arrays (nil means
// allocate fresh ones); afterwards scr holds the store's previous arrays
// for reuse by the next call.
func (s *Store) ApplyPermutation(perm []int32, scr *Scratch) {
	n := s.Len()
	if len(perm) != n {
		panic(fmt.Sprintf("particle: ApplyPermutation perm len %d, store len %d", len(perm), n))
	}
	if scr == nil {
		scr = &Scratch{}
	}
	scr.grow(n, s.Z != nil)
	for i, p := range perm {
		scr.x[i] = s.X[p]
		scr.y[i] = s.Y[p]
		scr.px[i] = s.Px[p]
		scr.py[i] = s.Py[p]
		scr.pz[i] = s.Pz[p]
		scr.id[i] = s.ID[p]
		scr.key[i] = s.Key[p]
	}
	if s.Z != nil {
		for i, p := range perm {
			scr.z[i] = s.Z[p]
		}
		s.Z, scr.z = scr.z, s.Z
	}
	s.X, scr.x = scr.x, s.X
	s.Y, scr.y = scr.y, s.Y
	s.Px, scr.px = scr.px, s.Px
	s.Py, scr.py = scr.py, s.Py
	s.Pz, scr.pz = scr.pz, s.Pz
	s.ID, scr.id = scr.id, s.ID
	s.Key, scr.key = scr.key, s.Key
}

// SwapContents exchanges the particle arrays of a and b in O(1), leaving
// the species constants untouched. It is the zero-copy way to hand a
// scratch store's contents to a caller-visible store (and recycle the
// caller's old arrays as scratch).
func SwapContents(a, b *Store) {
	a.X, b.X = b.X, a.X
	a.Y, b.Y = b.Y, a.Y
	a.Z, b.Z = b.Z, a.Z
	a.Px, b.Px = b.Px, a.Px
	a.Py, b.Py = b.Py, a.Py
	a.Pz, b.Pz = b.Pz, a.Pz
	a.ID, b.ID = b.ID, a.ID
	a.Key, b.Key = b.Key, a.Key
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

// MarshalRange packs particles [lo, hi) into dst (len ≥ (hi−lo)·WireFloats())
// for transmission and returns the filled prefix. 3-D stores emit z after y.
func (s *Store) MarshalRange(dst []float64, lo, hi int) []float64 {
	dst = dst[:0]
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

// MarshalIndices packs the particles at the given indices.
func (s *Store) MarshalIndices(dst []float64, idx []int) []float64 {
	dst = dst[:0]
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

// Config parameterises particle generation.
type Config struct {
	N            int     // total particle count
	Lx, Ly       float64 // physical domain size
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

// Generate creates the global particle population for a simulation.
func Generate(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 0 || cfg.Lx <= 0 || cfg.Ly <= 0 {
		return nil, fmt.Errorf("particle: invalid config n=%d domain=%gx%g", cfg.N, cfg.Lx, cfg.Ly)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := NewStore(cfg.N, cfg.Charge, cfg.Mass)
	switch cfg.Distribution {
	case DistUniform, "":
		for i := 0; i < cfg.N; i++ {
			s.Append(rng.Float64()*cfg.Lx, rng.Float64()*cfg.Ly,
				rng.NormFloat64()*cfg.Thermal, rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	case DistIrregular:
		// Truncated Gaussian concentrated at the domain centre: the
		// paper's "irregularly distributed particles ... concentrated in
		// the center of the domain".
		sx, sy := cfg.Sigma*cfg.Lx, cfg.Sigma*cfg.Ly
		for i := 0; i < cfg.N; i++ {
			x, y := gaussInDomain(rng, cfg.Lx/2, sx, cfg.Lx), gaussInDomain(rng, cfg.Ly/2, sy, cfg.Ly)
			s.Append(x, y,
				rng.NormFloat64()*cfg.Thermal, rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	case DistTwoStream:
		for i := 0; i < cfg.N; i++ {
			drift := cfg.Drift
			if i%2 == 1 {
				drift = -cfg.Drift
			}
			s.Append(rng.Float64()*cfg.Lx, rng.Float64()*cfg.Ly,
				drift+rng.NormFloat64()*cfg.Thermal, rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	case DistBeam:
		// A compact beam near the left edge drifting right: the moving
		// hot-spot workload that makes redistribution matter most.
		sx, sy := cfg.Sigma*cfg.Lx, cfg.Sigma*cfg.Ly
		for i := 0; i < cfg.N; i++ {
			x := gaussInDomain(rng, cfg.Lx*0.15, sx, cfg.Lx)
			y := gaussInDomain(rng, cfg.Ly/2, sy, cfg.Ly)
			s.Append(x, y,
				cfg.Drift+rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	case DistSpike:
		sx, sy := 0.03*cfg.Lx, 0.03*cfg.Ly
		for i := 0; i < cfg.N; i++ {
			var x, y float64
			if i%5 == 0 { // uniform background, every fifth particle
				x, y = rng.Float64()*cfg.Lx, rng.Float64()*cfg.Ly
			} else {
				x = gaussInDomain(rng, cfg.Lx*0.7, sx, cfg.Lx)
				y = gaussInDomain(rng, cfg.Ly*0.3, sy, cfg.Ly)
			}
			s.Append(x, y,
				rng.NormFloat64()*cfg.Thermal, rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	case DistCollapse:
		for i := 0; i < cfg.N; i++ {
			x, y := rng.Float64()*cfg.Lx, rng.Float64()*cfg.Ly
			dx, dy := cfg.Lx/2-x, cfg.Ly/2-y
			norm := math.Hypot(dx, dy)
			if norm == 0 {
				norm = 1
			}
			s.Append(x, y,
				cfg.Drift*dx/norm+rng.NormFloat64()*cfg.Thermal,
				cfg.Drift*dy/norm+rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	default:
		return nil, fmt.Errorf("particle: unknown distribution %q", cfg.Distribution)
	}
	return s, nil
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
