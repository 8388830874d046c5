package particle

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"picpar/internal/raceflag"
)

// pinnedDists lists every distribution with its population digest, 2-D
// then 3-D, for the population pinnedGenerator describes.
var pinnedDists = []struct {
	name         string
	want2, want3 string
}{
	{DistUniform, "076037ffa4916ccf", "a5803e5971cf7015"},
	{DistIrregular, "75e348a31f8c076a", "7c11f8e1a96d0fac"},
	{DistTwoStream, "a315621b741146bd", "0d29adcefe57392e"},
	{DistBeam, "210aaabdfd90a890", "2bbc1d23414fe9fe"},
	{DistSpike, "3618edb73a868eb9", "7e390f8c7e6e701a"},
	{DistCollapse, "8812d79855a2f331", "c049b18b01ff8a6b"},
}

// pinnedGenerator returns the generator of the pinned population of dist,
// and an empty store to fill: 5001 particles, seed 7, on a 64×32 box in
// 2-D or 16×12×8 in 3-D.
func pinnedGenerator(t testing.TB, dist string, dims int) (*Generator, *Store) {
	t.Helper()
	cfg := Config{N: 5001, Lx: 64, Ly: 32, Distribution: dist, Seed: 7, Thermal: 0.3, Charge: -0.02, Mass: 1}
	s := NewStore(0, cfg.Charge, cfg.Mass)
	if dims == 3 {
		cfg.Lx, cfg.Ly, cfg.Lz = 16, 12, 8
		s = NewStore3(0, cfg.Charge, cfg.Mass)
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

// populationDigest is FNV-64a over the little-endian bits of X, Y, Z (3-D
// only), Px, Py, Pz and ID, column by column.
func populationDigest(s *Store) string {
	h := fnv.New64a()
	var b [8]byte
	for _, col := range [][]float64{s.X, s.Y, s.Z, s.Px, s.Py, s.Pz, s.ID} {
		for _, v := range col {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGeneratePopulationsPinned freezes every distribution's random stream
// in both dimensions, and checks that Fill into a grown store allocates
// nothing per particle.
func TestGeneratePopulationsPinned(t *testing.T) {
	for _, d := range pinnedDists {
		for _, dims := range []int{2, 3} {
			want := d.want2
			if dims == 3 {
				want = d.want3
			}
			t.Run(fmt.Sprintf("%s/%dD", d.name, dims), func(t *testing.T) {
				g, s := pinnedGenerator(t, d.name, dims)
				g.Fill(s, 5001)
				if s.Dims() != dims {
					t.Fatalf("store has %d dims, want %d", s.Dims(), dims)
				}
				if got := populationDigest(s); got != want {
					t.Errorf("population digest %s, want %s", got, want)
				}
				if raceflag.Enabled {
					return
				}
				g, s = pinnedGenerator(t, d.name, dims)
				s.Grow(7000)
				if a := testing.AllocsPerRun(5, func() { g.Fill(s, 1000) }); a != 0 {
					t.Errorf("Fill(s, 1000) allocates %v times, want 0", a)
				}
			})
		}
	}
}

// BenchmarkFill times generation per particle, for every distribution in
// both dimensions, filling a grown store in chunks of 4096.
func BenchmarkFill(b *testing.B) {
	const chunk = 4096
	for _, d := range pinnedDists {
		for _, dims := range []int{2, 3} {
			b.Run(fmt.Sprintf("%s/%dD", d.name, dims), func(b *testing.B) {
				g, s := pinnedGenerator(b, d.name, dims)
				s.Grow(chunk)
				b.ReportAllocs()
				b.ResetTimer()
				for done := 0; done < b.N; done += chunk {
					s.Truncate(0)
					g.Fill(s, min(chunk, b.N-done))
				}
			})
		}
	}
}
