package particle

import (
	"math/rand"
	"testing"

	"picpar/internal/raceflag"
)

// randomStore fills n particles with distinct random values in every field
// so a misrouted field shows up as a mismatch.
func randomStore(rng *rand.Rand, n int) *Store {
	s := NewStore(n, -1, 1)
	for i := 0; i < n; i++ {
		s.Append(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), float64(i))
		s.Key[i] = rng.Float64()
	}
	return s
}

// TestApplyPermutationAllFields verifies that one apply gathers every one
// of the 7 SoA fields through the permutation, against a per-element
// reference built with AppendFrom.
func TestApplyPermutationAllFields(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 2, 17, 1000} {
		s := randomStore(rng, n)
		perm := make([]int32, n)
		for i, p := range rng.Perm(n) {
			perm[i] = int32(p)
		}
		want := NewStore(n, s.Charge, s.Mass)
		for _, p := range perm {
			want.AppendFrom(s, int(p))
		}
		s.ApplyPermutation(perm, nil)
		for i := 0; i < n; i++ {
			if s.X[i] != want.X[i] || s.Y[i] != want.Y[i] ||
				s.Px[i] != want.Px[i] || s.Py[i] != want.Py[i] || s.Pz[i] != want.Pz[i] ||
				s.ID[i] != want.ID[i] || s.Key[i] != want.Key[i] {
				t.Fatalf("n=%d pos %d: permuted particle differs from reference", n, i)
			}
		}
	}
}

// TestApplyPermutationRoundTrip applies a permutation and then its inverse
// and requires the exact original store back.
func TestApplyPermutationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 513
	s := randomStore(rng, n)
	orig := s.Clone()
	perm := make([]int32, n)
	inv := make([]int32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int32(p)
	}
	for i, p := range perm {
		inv[p] = int32(i)
	}
	spare := s.NewLike(0)
	s.ApplyPermutation(perm, spare)
	s.ApplyPermutation(inv, spare)
	for i := 0; i < n; i++ {
		if s.X[i] != orig.X[i] || s.Y[i] != orig.Y[i] ||
			s.Px[i] != orig.Px[i] || s.Py[i] != orig.Py[i] || s.Pz[i] != orig.Pz[i] ||
			s.ID[i] != orig.ID[i] || s.Key[i] != orig.Key[i] {
			t.Fatalf("pos %d: round trip changed the store", i)
		}
	}
}

// TestApplyPermutationLengthMismatchPanics pins the guard.
func TestApplyPermutationLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ApplyPermutation with wrong perm length did not panic")
		}
	}()
	s := randomStore(rand.New(rand.NewSource(1)), 4)
	s.ApplyPermutation(make([]int32, 3), nil)
}

// TestApplyPermutationScratchReuse checks the steady state: with a warm
// spare store, repeated applies allocate nothing.
func TestApplyPermutationScratchReuse(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	rng := rand.New(rand.NewSource(31))
	n := 256
	s := randomStore(rng, n)
	perm := make([]int32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int32(p)
	}
	spare := s.NewLike(0)
	s.ApplyPermutation(perm, spare) // warm
	if allocs := testing.AllocsPerRun(20, func() {
		s.ApplyPermutation(perm, spare)
	}); allocs != 0 {
		t.Errorf("ApplyPermutation with a warm spare: %v allocs/op, want 0", allocs)
	}
}
