package wire

import (
	"testing"

	"picpar/internal/raceflag"
)

func TestGetPutRoundTrip(t *testing.T) {
	b := Get(100)
	if len(b) != 0 {
		t.Fatalf("Get returned len %d, want 0", len(b))
	}
	if cap(b) < 100 {
		t.Fatalf("Get(100) cap %d, want >= 100", cap(b))
	}
	b = append(b, 1, 2, 3)
	Put(b)
	c := Get(10)
	if len(c) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(c))
	}
	Put(c)
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	Put(Get(4096)) // warm both pools
	if allocs := testing.AllocsPerRun(50, func() {
		b := Get(4096)
		b = append(b, 1)
		Put(b)
	}); allocs != 0 {
		t.Errorf("warm Get/Put cycle: %v allocs/op, want 0", allocs)
	}
	PutBytes(GetBytes(4096))
	if allocs := testing.AllocsPerRun(50, func() {
		b := GetBytes(4096)
		b = append(b, 1)
		PutBytes(b)
	}); allocs != 0 {
		t.Errorf("warm GetBytes/PutBytes cycle: %v allocs/op, want 0", allocs)
	}
}

func TestPutNilAndTiny(t *testing.T) {
	Put(nil) // must not panic or poison the pool
	b := Get(0)
	if b == nil || len(b) != 0 {
		t.Fatalf("Get(0) = %v, want empty non-nil buffer", b)
	}
	Put(b)
}

// TestGetNeverShort: whatever the pool holds, Get(n) returns capacity at
// least n, and below 4n because it draws only from n's own size class.
// Every class is seeded with a buffer above its floor, so both exact and
// in-between capacities are drawn. A single free list fails the upper
// bound: it serves small requests with the largest buffers it holds.
func TestGetNeverShort(t *testing.T) {
	for c := 1; c <= 18; c++ {
		Put(make([]float64, 0, 3<<(c-1)))
		PutBytes(make([]byte, 0, 3<<(c-1)))
	}
	step := 1
	if raceflag.Enabled {
		step = 101 // the race runtime drops pooled items at random, so most Gets allocate
	}
	for n := 0; n <= 1<<18; n += step {
		b, bb := Get(n), GetBytes(n)
		if hi := 4 * max(n, 1); cap(b) < n || cap(b) >= hi || cap(bb) < n || cap(bb) >= hi {
			t.Fatalf("Get(%d) cap %d, GetBytes(%d) cap %d, want in [%d, %d)", n, cap(b), n, cap(bb), n, hi)
		}
		Put(b)
		PutBytes(bb)
	}
}

// TestWarmMixedSizesZeroAlloc: a small and a large buffer cycling together
// allocate nothing once warm, each served from its own size class.
func TestWarmMixedSizesZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		small, large := Get(10), Get(1000)
		Put(large)
		Put(small)
	}); allocs != 0 {
		t.Errorf("warm Get(10)/Get(1000) cycle: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		small, large := GetBytes(10), GetBytes(1000)
		PutBytes(large)
		PutBytes(small)
	}); allocs != 0 {
		t.Errorf("warm GetBytes(10)/GetBytes(1000) cycle: %v allocs/op, want 0", allocs)
	}
}
