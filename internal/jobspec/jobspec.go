// Package jobspec is the one place a textual simulation description — CLI
// flags or a JSON document — becomes a pic.Config. cmd/picsim (flags),
// cmd/picbench (fixed sweep workloads) and cmd/picserve (JSON job
// submissions) all build their configurations through Spec, so the three
// entrypoints cannot drift: a policy spelling or mesh syntax accepted by one
// is accepted by all.
package jobspec

import (
	"fmt"
	"strconv"
	"strings"

	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/pic"
	"picpar/internal/policy"
)

// Spec is the serialisable description of one simulation job. The zero
// value of every field defers to pic.Config's defaulting (withDefaults):
// only what a caller states explicitly is pinned. JSON field names are the
// wire contract of the picserve submission API.
type Spec struct {
	// Dims is the spatial dimensionality, 2 (default) or 3.
	Dims int `json:"dims,omitempty"`
	// Mesh is the global grid, "NXxNY" (2-D) or "NXxNYxNZ" (3-D); empty
	// uses the pic defaults (64x32 / 16x16x16).
	Mesh string `json:"mesh,omitempty"`
	// Particles is the global particle count n.
	Particles int `json:"particles,omitempty"`
	// Ranks is the number of ranks (processors) P.
	Ranks int `json:"ranks,omitempty"`
	// Iterations is the number of PIC time steps.
	Iterations int `json:"iterations,omitempty"`
	// Distribution, Indexing, Table and Topology are passed through to
	// pic.Config verbatim (pic validates the spellings).
	Distribution string `json:"distribution,omitempty"`
	Indexing     string `json:"indexing,omitempty"`
	Table        string `json:"table,omitempty"`
	Topology     string `json:"topology,omitempty"`
	// Policy is the redistribution policy:
	// static|dynamic|periodic:<k>|adaptive|adaptive:<k>. Empty means the
	// pic default (static).
	Policy string `json:"policy,omitempty"`
	// Strategy pins the layout strategy the policy's firings rebuild into:
	// equal-count|cost-weighted|eulerian. Empty keeps the policy's own
	// choice (equal-count, or per-firing under adaptive).
	Strategy string `json:"strategy,omitempty"`
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64 `json:"seed,omitempty"`
	// Thermal is the thermal momentum spread (p/mc); 0 = default 0.3.
	Thermal float64 `json:"thermal,omitempty"`
	// Modern selects the modern-cluster cost model instead of CM-5.
	Modern bool `json:"modern,omitempty"`
	// Workers is the shared-memory worker count per rank; 0 = $PICPAR_PROCS
	// or 1. Results are byte-identical for any count.
	Workers int `json:"workers,omitempty"`
	// Diagnostics enables energy histories; Verify enables per-iteration
	// invariant checks (charged compute — changes timings).
	Diagnostics bool `json:"diagnostics,omitempty"`
	Verify      bool `json:"verify,omitempty"`
	// Checkpoint fields mirror pic.Config; picserve overrides CheckpointDir
	// with the job's own directory.
	CheckpointDir   string `json:"checkpoint_dir,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	CheckpointKeep  int    `json:"checkpoint_keep,omitempty"`
	Recover         bool   `json:"recover,omitempty"`
}

// Config builds the pic.Config the spec describes. Unset fields stay zero
// so pic's own defaulting and validation run unchanged; errors name the
// offending spec field.
func (s Spec) Config() (pic.Config, error) {
	cfg := pic.Config{
		Dims:         s.Dims,
		P:            s.Ranks,
		NumParticles: s.Particles,
		Distribution: s.Distribution,
		Seed:         s.Seed,
		Iterations:   s.Iterations,
		Indexing:     s.Indexing,
		Table:        s.Table,
		Topology:     s.Topology,
		Thermal:      s.Thermal,
		Diagnostics:  s.Diagnostics,
		Verify:       s.Verify,
		Workers:      s.Workers,

		CheckpointDir:   s.CheckpointDir,
		CheckpointEvery: s.CheckpointEvery,
		CheckpointKeep:  s.CheckpointKeep,
		Recover:         s.Recover,
	}
	dim := s.Dims
	if dim == 0 {
		dim = 2
	}
	if s.Mesh != "" {
		ext, err := ParseMesh(s.Mesh, dim)
		if err != nil {
			return pic.Config{}, err
		}
		if dim == 3 {
			cfg.Grid3 = mesh.NewGrid3(ext[0], ext[1], ext[2])
		} else {
			cfg.Grid = mesh.NewGrid(ext[0], ext[1])
		}
	}
	if s.Policy != "" {
		pol, err := ParsePolicy(s.Policy)
		if err != nil {
			return pic.Config{}, err
		}
		cfg.Policy = pol
	}
	if s.Strategy != "" {
		strat, err := policy.ParseStrategy(s.Strategy)
		if err != nil {
			return pic.Config{}, err
		}
		if cfg.Policy == nil {
			cfg.Policy = policy.NewStatic()
		}
		cfg.Policy = policy.WithStrategy(cfg.Policy, strat)
	}
	if s.Modern {
		cfg.Machine = machine.Modern()
	}
	return cfg, nil
}

// ParseMesh parses "NXxNY" (dim 2) or "NXxNYxNZ" (dim 3), case-insensitive
// on the separator, into the extent list.
func ParseMesh(s string, dim int) ([]int, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != dim {
		return nil, fmt.Errorf("jobspec: mesh %q has %d extents, want %d for dims %d",
			s, len(parts), dim, dim)
	}
	ext := make([]int, dim)
	for i, part := range parts {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("jobspec: mesh extent %q: %v", part, err)
		}
		ext[i] = v
	}
	return ext, nil
}

// ParsePolicy parses the policy spelling shared by every entrypoint:
// static|dynamic|periodic:<k>|adaptive|adaptive:<k>.
func ParsePolicy(s string) (policy.Factory, error) {
	switch {
	case s == "static":
		return policy.NewStatic(), nil
	case s == "dynamic":
		return policy.NewDynamic(), nil
	case s == "adaptive":
		return policy.NewAdaptive(), nil
	case strings.HasPrefix(s, "periodic:"):
		k, err := strconv.Atoi(strings.TrimPrefix(s, "periodic:"))
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("jobspec: bad period in policy %q", s)
		}
		return policy.NewPeriodic(k), nil
	case strings.HasPrefix(s, "adaptive:"):
		k, err := strconv.Atoi(strings.TrimPrefix(s, "adaptive:"))
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("jobspec: bad period in policy %q", s)
		}
		return policy.NewAdaptiveEvery(k), nil
	}
	return nil, fmt.Errorf("jobspec: unknown policy %q (want static|dynamic|periodic:<k>|adaptive[:<k>])", s)
}
