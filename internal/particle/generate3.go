package particle

import (
	"fmt"
	"math"
	"math/rand"
)

// Config3 parameterises 3-D particle generation. The distributions mirror
// the 2-D generator but consume their own rng stream (adding a coordinate
// necessarily changes consumption order, so 3-D generation lives here and
// the 2-D stream stays frozen for golden reproducibility).
type Config3 struct {
	N            int     // total particle count
	Lx, Ly, Lz   float64 // physical domain size
	Distribution string
	Seed         int64
	Thermal      float64 // thermal momentum spread (p/mc); default 0.05
	Drift        float64 // drift momentum for twostream/beam; default 0.2
	Sigma        float64 // Gaussian std-dev fraction for irregular; default 0.1
	Charge, Mass float64 // default −1 and 1
}

func (c Config3) withDefaults() Config3 {
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

// Generate3 creates the global 3-D particle population for a simulation.
func Generate3(cfg Config3) (*Store, error) {
	g, err := NewGenerator3(cfg)
	if err != nil {
		return nil, err
	}
	s := NewStore3(cfg.N, g.charge, g.mass)
	g.Fill(s, cfg.N)
	return s, nil
}

// NewGenerator3 returns the generator of the 3-D population cfg describes.
func NewGenerator3(cfg Config3) (*Generator, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 0 || cfg.Lx <= 0 || cfg.Ly <= 0 || cfg.Lz <= 0 {
		return nil, fmt.Errorf("particle: invalid 3-D config n=%d domain=%gx%gx%g", cfg.N, cfg.Lx, cfg.Ly, cfg.Lz)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{charge: cfg.Charge, mass: cfg.Mass}
	switch cfg.Distribution {
	case DistUniform, "":
		g.emit = func(s *Store, i int) {
			s.Append3(rng.Float64()*cfg.Lx, rng.Float64()*cfg.Ly, rng.Float64()*cfg.Lz,
				rng.NormFloat64()*cfg.Thermal, rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	case DistIrregular:
		sx, sy, sz := cfg.Sigma*cfg.Lx, cfg.Sigma*cfg.Ly, cfg.Sigma*cfg.Lz
		g.emit = func(s *Store, i int) {
			x := gaussInDomain(rng, cfg.Lx/2, sx, cfg.Lx)
			y := gaussInDomain(rng, cfg.Ly/2, sy, cfg.Ly)
			z := gaussInDomain(rng, cfg.Lz/2, sz, cfg.Lz)
			s.Append3(x, y, z,
				rng.NormFloat64()*cfg.Thermal, rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	case DistTwoStream:
		g.emit = func(s *Store, i int) {
			drift := cfg.Drift
			if i%2 == 1 {
				drift = -cfg.Drift
			}
			s.Append3(rng.Float64()*cfg.Lx, rng.Float64()*cfg.Ly, rng.Float64()*cfg.Lz,
				drift+rng.NormFloat64()*cfg.Thermal, rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	case DistBeam:
		sx, sy, sz := cfg.Sigma*cfg.Lx, cfg.Sigma*cfg.Ly, cfg.Sigma*cfg.Lz
		g.emit = func(s *Store, i int) {
			x := gaussInDomain(rng, cfg.Lx*0.15, sx, cfg.Lx)
			y := gaussInDomain(rng, cfg.Ly/2, sy, cfg.Ly)
			z := gaussInDomain(rng, cfg.Lz/2, sz, cfg.Lz)
			s.Append3(x, y, z,
				cfg.Drift+rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	case DistSpike:
		sx, sy, sz := 0.03*cfg.Lx, 0.03*cfg.Ly, 0.03*cfg.Lz
		g.emit = func(s *Store, i int) {
			var x, y, z float64
			if i%5 == 0 { // uniform background, every fifth particle
				x, y, z = rng.Float64()*cfg.Lx, rng.Float64()*cfg.Ly, rng.Float64()*cfg.Lz
			} else {
				x = gaussInDomain(rng, cfg.Lx*0.7, sx, cfg.Lx)
				y = gaussInDomain(rng, cfg.Ly*0.3, sy, cfg.Ly)
				z = gaussInDomain(rng, cfg.Lz/2, sz, cfg.Lz)
			}
			s.Append3(x, y, z,
				rng.NormFloat64()*cfg.Thermal, rng.NormFloat64()*cfg.Thermal,
				rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	case DistCollapse:
		g.emit = func(s *Store, i int) {
			x, y, z := rng.Float64()*cfg.Lx, rng.Float64()*cfg.Ly, rng.Float64()*cfg.Lz
			dx, dy, dz := cfg.Lx/2-x, cfg.Ly/2-y, cfg.Lz/2-z
			norm := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if norm == 0 {
				norm = 1
			}
			s.Append3(x, y, z,
				cfg.Drift*dx/norm+rng.NormFloat64()*cfg.Thermal,
				cfg.Drift*dy/norm+rng.NormFloat64()*cfg.Thermal,
				cfg.Drift*dz/norm+rng.NormFloat64()*cfg.Thermal, float64(i))
		}
	default:
		return nil, fmt.Errorf("particle: unknown distribution %q", cfg.Distribution)
	}
	return g, nil
}
