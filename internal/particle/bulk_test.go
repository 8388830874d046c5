package particle

import (
	"math/rand"
	"testing"
)

// randomStoreDims is randomStore in 2-D or 3-D: every field, Z included,
// holds distinct random values.
func randomStoreDims(rng *rand.Rand, n, dims int) *Store {
	s := NewStore(n, -1, 1)
	if dims == 3 {
		s = NewStore3(n, -1, 1)
	}
	for i := 0; i < n; i++ {
		if dims == 3 {
			s.Append3(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
				rng.Float64(), rng.Float64(), float64(i))
		} else {
			s.Append(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
				rng.Float64(), float64(i))
		}
		s.Key[i] = rng.Float64()
	}
	return s
}

// columns lists the store's particle columns, Z included when present.
func columns(s *Store) [][]float64 {
	cols := [][]float64{s.X, s.Y, s.Px, s.Py, s.Pz, s.ID, s.Key}
	if s.Z != nil {
		cols = append(cols, s.Z)
	}
	return cols
}

func sameStore(t *testing.T, what string, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() || (got.Z == nil) != (want.Z == nil) {
		t.Fatalf("%s: len %d dims %d, want len %d dims %d", what, got.Len(), got.Dims(), want.Len(), want.Dims())
	}
	gc, wc := columns(got), columns(want)
	for c := range gc {
		if len(gc[c]) != want.Len() {
			t.Fatalf("%s: column %d has len %d, want %d", what, c, len(gc[c]), want.Len())
		}
		for i := range gc[c] {
			if gc[c][i] != wc[c][i] {
				t.Fatalf("%s: column %d particle %d = %v, want %v", what, c, i, gc[c][i], wc[c][i])
			}
		}
	}
}

// TestBulkAppendsMatchAppendFrom checks AppendRange and AppendIndices
// against the per-particle AppendFrom reference on 2-D and 3-D stores,
// appending behind existing particles: every column, Z included, carries
// the same values in the same order.
func TestBulkAppendsMatchAppendFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range []int{2, 3} {
		src := randomStoreDims(rng, 100, dims)
		head := randomStoreDims(rng, 3, dims)
		idx := []int{99, 0, 42, 42, 7, 98, 1}

		got, want := head.Clone(), head.Clone()
		got.AppendRange(src, 10, 60)
		got.AppendRange(src, 60, 60)
		for i := 10; i < 60; i++ {
			want.AppendFrom(src, i)
		}
		got.AppendIndices(src, idx)
		got.AppendIndices(src, nil)
		for _, i := range idx {
			want.AppendFrom(src, i)
		}
		sameStore(t, "bulk appends", got, want)
	}
}

// TestGrowExactFitAndNoReallocation pins the sizing contract of the bulk
// paths on 2-D and 3-D stores: growing an empty store — by Grow or by the
// first bulk append — allocates exactly the requested particles in every
// column, and appends within the grown capacity never move a column.
func TestGrowExactFitAndNoReallocation(t *testing.T) {
	// 1024 float64s is 8 KiB, a malloc size class: an exact fit cannot be
	// rounded up by the allocator, so cap == n is the contract itself.
	const n = 1024
	rng := rand.New(rand.NewSource(9))
	for _, dims := range []int{2, 3} {
		src := randomStoreDims(rng, n, dims)
		all := make([]int, n)
		for i := range all {
			all[i] = n - 1 - i
		}
		fromEmpty := map[string]func(s *Store){
			"Grow":          func(s *Store) { s.Grow(n) },
			"AppendRange":   func(s *Store) { s.AppendRange(src, 0, n) },
			"AppendIndices": func(s *Store) { s.AppendIndices(src, all) },
			"AppendWire": func(s *Store) {
				if err := s.AppendWire(src.MarshalRange(nil, 0, n)); err != nil {
					t.Fatal(err)
				}
			},
		}
		for name, grow := range fromEmpty {
			s := src.NewLike(0)
			grow(s)
			for c, col := range columns(s) {
				if cap(col) != n {
					t.Errorf("%d-D %s from empty: column %d cap %d, want exact fit %d", dims, name, c, cap(col), n)
				}
			}
		}

		s := src.NewLike(0)
		s.Grow(n)
		base := make([]*float64, 0, 8)
		for _, col := range columns(s) {
			base = append(base, &col[:1][0])
		}
		s.Grow(n / 2) // capacity already suffices: a no-op
		s.AppendRange(src, 0, n/4)
		s.AppendIndices(src, all[:n/4])
		if err := s.AppendWire(src.MarshalRange(nil, n/4, n/2)); err != nil {
			t.Fatal(err)
		}
		s.AppendRange(src, n/2, n*3/4)
		if s.Len() != n {
			t.Fatalf("%d-D: len %d, want %d", dims, s.Len(), n)
		}
		for c, col := range columns(s) {
			if &col[0] != base[c] || cap(col) != n {
				t.Errorf("%d-D: column %d reallocated (cap %d) although capacity sufficed", dims, c, cap(col))
			}
		}
	}
}
