package psort

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/commtest"
	"picpar/internal/machine"
	"picpar/internal/particle"
)

// sameStore reports whether a and b hold bit-identical particles, every
// column (Z included) and the species constants.
func sameStore(a, b *particle.Store) bool {
	if a.Len() != b.Len() || a.Dims() != b.Dims() || a.Charge != b.Charge || a.Mass != b.Mass {
		return false
	}
	col := func(x, y []float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return col(a.X, b.X) && col(a.Y, b.Y) && col(a.Z, b.Z) && col(a.Px, b.Px) &&
		col(a.Py, b.Py) && col(a.Pz, b.Pz) && col(a.ID, b.ID) && col(a.Key, b.Key)
}

// TestSetRotationNeverClobbersLiveStores drives an Incremental's three
// rotating sets through the two call sequences pic makes besides plain
// redistribution, on 3-D stores so the Z column rotates too:
//   - redistribute, then re-import the bounds that call started from and
//     redistribute the same input again (the replay a checkpoint restore
//     makes through ImportBounds);
//   - an Eulerian one-shot migration (a store rebuilt in a Spare set)
//     between redistributions.
//
// Every output must equal, bit for bit, what a fresh Incremental with the
// same bounds makes of a copy of the same input, and no call may change
// the bytes of its input or of the store the caller holds. A set picker
// that hands a call its own input, its received run or the caller's store
// as the target of a balance or a migration trips these checks (or the
// reads of the run it overwrites).
func TestSetRotationNeverClobbersLiveStores(t *testing.T) {
	const p, perRank, keys = 4, 700, 1 << 14
	commtest.Launch(p, machine.Zero(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(int64(61 + r.Rank())))
		s := particle.NewStore3(perRank, -1, 1)
		for i := 0; i < perRank; i++ {
			id := float64(r.Rank()*perRank + i)
			s.Append3(rng.Float64(), rng.Float64(), rng.Float64(), 0, 0, 0, id)
			s.Key[i] = float64(rng.Intn(keys))
		}
		inc := NewIncremental(0)
		s = inc.Distribute(r, s, nil)
		inc.Prime(s)

		drift := func(s *particle.Store) {
			for i := range s.Key {
				k := s.Key[i] + math.Round(rng.NormFloat64()*40)
				if rng.Intn(50) == 0 {
					k = float64(rng.Intn(keys))
				}
				s.Key[i] = math.Min(math.Max(k, 0), keys-1)
			}
		}
		// redistribute checks one call against a fresh Incremental primed
		// with the same bounds, and that the input survived it.
		redistribute := func(step string, in *particle.Store) *particle.Store {
			fresh := NewIncremental(0)
			if err := fresh.ImportBounds(inc.ExportBounds(nil)); err != nil {
				panic(err)
			}
			want, _ := fresh.Redistribute(r, in.Clone())
			before := in.Clone()
			out, _ := inc.Redistribute(r, in)
			if !sameStore(in, before) {
				t.Errorf("rank %d %s: redistribution changed its input", r.Rank(), step)
			}
			if !sameStore(out, want) {
				t.Errorf("rank %d %s: output differs from a fresh Incremental's", r.Rank(), step)
			}
			return out
		}
		// migrate rebuilds cur, reversed, in a Spare set — the shape of
		// pic's Eulerian one-shot migration — and checks cur survived it.
		migrate := func(cur *particle.Store) *particle.Store {
			before := cur.Clone()
			idx := make([]int, cur.Len())
			for i := range idx {
				idx[i] = cur.Len() - 1 - i
			}
			m := inc.Spare(cur, cur.Len())
			m.AppendIndices(cur, idx)
			if !sameStore(cur, before) {
				t.Errorf("rank %d: Spare handed out the caller's store", r.Rank())
			}
			return m
		}

		for round := 0; round < 3; round++ {
			// Replay: the first output is dropped, the bounds it started
			// from are imported again, and the same input goes round again.
			drift(s)
			b := inc.ExportBounds(nil)
			first := redistribute("first run", s).Clone()
			if err := inc.ImportBounds(b); err != nil {
				panic(err)
			}
			kept := redistribute("replay", s)
			if !sameStore(kept, first) {
				t.Errorf("rank %d: replay from imported bounds differs from the first run", r.Rank())
			}
			// A migration between two redistributions.
			s = migrate(kept)
			drift(s)
			s = redistribute("after migration", s)
		}
	})
}

// TestSetCapacityTwoSharesPlusReceived pins the best-fit set picker: after
// the boot's sample sort and ten redistributions of a drifting population,
// a rank's sets hold at most two full shares with headroom plus the largest
// run it received, with headroom. A balance that wrote its share into the
// received-run set would grow that set to full size too, and three full
// sets exceed the bound.
func TestSetCapacityTwoSharesPlusReceived(t *testing.T) {
	const p, perRank, keys = 4, 3000, 1 << 16
	commtest.Launch(p, machine.Zero(), func(r comm.Transport) {
		rng := rand.New(rand.NewSource(int64(71 + r.Rank())))
		inc := NewIncremental(0)
		// The boot's shape: the dealt chunk already lives in a set.
		s := inc.Spare(particle.NewStore(0, -1, 1), perRank)
		for i := 0; i < perRank; i++ {
			s.Append(rng.Float64(), rng.Float64(), 0, 0, 0, float64(r.Rank()*perRank+i))
			s.Key[i] = float64(rng.Intn(keys))
		}
		s = inc.Distribute(r, s, nil)
		inc.Prime(s)
		most := 0
		for call := 0; call < 10; call++ {
			for i := range s.Key {
				k := s.Key[i] + math.Round(rng.NormFloat64()*60)
				if rng.Intn(40) == 0 {
					k = float64(rng.Intn(keys))
				}
				s.Key[i] = math.Min(math.Max(k, 0), keys-1)
			}
			out, _ := inc.Redistribute(r, s)
			// The set that is neither the input nor the output holds the
			// run this call received.
			for _, set := range inc.mem {
				if set != nil && set != s && set != out {
					most = max(most, set.Len())
				}
			}
			s = out
		}
		total := 0
		for _, set := range inc.mem {
			if set != nil {
				total += cap(set.X)
			}
		}
		bound := 2*grown(perRank) + grown(most)
		t.Logf("rank %d: sets hold %d particles' room, bound %d (largest received run %d)", r.Rank(), total, bound, most)
		if total > bound {
			t.Errorf("rank %d: sets hold room for %d particles, want <= %d (two shares of %d plus a received run of %d, with headroom)",
				r.Rank(), total, bound, perRank, most)
		}
	})
}

// TestCreepingBufferRegrowsLogarithmically grows one set and one index
// list by a single element per call, from 1 to 4 096, the way a received
// run creeps up over the iterations, and allows each at most 2·log₂ n
// regrowths. With n + n/8 alone a small buffer regrows at almost every
// new high-water mark: 56 times here.
func TestCreepingBufferRegrowsLogarithmically(t *testing.T) {
	const n = 4096
	bound := 2 * bits.Len(n)
	in := particle.NewStore(0, -1, 1)
	var m sets
	m.adopt(in)
	var buf []int
	setGrows, listGrows := 0, 0
	for k := 1; k <= n; k++ {
		c := cap(buf)
		if buf = fit(buf, k); cap(buf) != c {
			listGrows++
		}
		c = m.capacity()
		m.free(in, nil, k)
		if m.capacity() != c {
			setGrows++
		}
	}
	if setGrows > bound || listGrows > bound {
		t.Errorf("creeping to %d: the set regrew %d times, the index list %d, want <= %d", n, setGrows, listGrows, bound)
	}
}

// capacity is the room the sets hold, in particles.
func (m *sets) capacity() (c int) {
	for _, s := range m {
		if s != nil {
			c += cap(s.X)
		}
	}
	return c
}
