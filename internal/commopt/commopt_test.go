package commopt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tables(m, hint int) map[string]DupTable {
	return map[string]DupTable{
		"direct": NewDirectTable(m),
		"hash":   NewHashTable(hint),
	}
}

func TestSlotAssignsDenseFirstSeenOrder(t *testing.T) {
	for name, tab := range tables(100, 4) {
		ids := []int{42, 7, 42, 99, 7, 0, 42}
		wantSlots := []int{0, 1, 0, 2, 1, 3, 0}
		for i, gid := range ids {
			if got := tab.Slot(gid); got != wantSlots[i] {
				t.Errorf("%s: Slot(%d) call %d = %d, want %d", name, gid, i, got, wantSlots[i])
			}
		}
		if tab.Len() != 4 {
			t.Errorf("%s: Len = %d, want 4", name, tab.Len())
		}
		wantKeys := []int32{42, 7, 99, 0}
		for i, k := range tab.Keys() {
			if k != wantKeys[i] {
				t.Errorf("%s: Keys[%d] = %d, want %d", name, i, k, wantKeys[i])
			}
		}
	}
}

func TestLookup(t *testing.T) {
	for name, tab := range tables(50, 2) {
		tab.Slot(10)
		tab.Slot(20)
		if got := tab.Lookup(20); got != 1 {
			t.Errorf("%s: Lookup(20) = %d, want 1", name, got)
		}
		if got := tab.Lookup(30); got != -1 {
			t.Errorf("%s: Lookup(30) = %d, want -1", name, got)
		}
	}
}

func TestReset(t *testing.T) {
	for name, tab := range tables(50, 2) {
		tab.Slot(10)
		tab.Slot(20)
		tab.Reset()
		if tab.Len() != 0 {
			t.Errorf("%s: Len after reset = %d", name, tab.Len())
		}
		if tab.Lookup(10) != -1 {
			t.Errorf("%s: stale entry after reset", name)
		}
		// Table is reusable.
		if got := tab.Slot(20); got != 0 {
			t.Errorf("%s: first slot after reset = %d", name, got)
		}
	}
}

func TestHashTableGrowth(t *testing.T) {
	tab := NewHashTable(1) // tiny: force several grows
	const n = 10000
	for i := 0; i < n; i++ {
		gid := i * 7
		if got := tab.Slot(gid); got != i {
			t.Fatalf("Slot(%d) = %d, want %d", gid, got, i)
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d", tab.Len())
	}
	// All still findable after growth.
	for i := 0; i < n; i++ {
		if got := tab.Lookup(i * 7); got != i {
			t.Fatalf("post-grow Lookup(%d) = %d, want %d", i*7, got, i)
		}
	}
}

func TestHashAndDirectAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1000
		dt := NewDirectTable(m)
		ht := NewHashTable(8)
		for k := 0; k < 500; k++ {
			gid := rng.Intn(m)
			if dt.Slot(gid) != ht.Slot(gid) {
				return false
			}
		}
		if dt.Len() != ht.Len() {
			return false
		}
		keys1, keys2 := dt.Keys(), ht.Keys()
		for i := range keys1 {
			if keys1[i] != keys2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewTable(t *testing.T) {
	if tab, err := NewTable(TableDirect, 10, 2); err != nil || tab.CostPerOp() != 1 {
		t.Errorf("direct: %v %v", tab, err)
	}
	if tab, err := NewTable(TableHash, 10, 2); err != nil || tab.CostPerOp() != 3 {
		t.Errorf("hash: %v %v", tab, err)
	}
	if _, err := NewTable("btree", 10, 2); err == nil {
		t.Error("expected error for unknown table kind")
	}
}

func TestGroupByOwnerCoalesces(t *testing.T) {
	tab := NewDirectTable(100)
	// Owner: gid / 10 (ranks 0..9), self = 3.
	for _, gid := range []int{51, 52, 71, 53, 12} {
		tab.Slot(gid)
	}
	var reg Registry
	reg.Build(tab, 3, 10, func(gid int) int { return gid / 10 })
	if len(reg.Dest) != 3 {
		t.Fatalf("%d destinations, want 3 (ranks 5,7,1)", len(reg.Dest))
	}
	if n := len(reg.Gids[0]) + len(reg.Gids[1]) + len(reg.Gids[2]); n != 5 {
		t.Errorf("%d ghost points, want 5", n)
	}
	// Destinations appear in rank order with their gids grouped.
	wantDest := []int{1, 5, 7}
	for i, d := range reg.Dest {
		if d != wantDest[i] {
			t.Errorf("Dest[%d] = %d, want %d", i, d, wantDest[i])
		}
	}
	// Slots correspond to the same positions as gids.
	for k := range reg.Dest {
		for i := range reg.Gids[k] {
			slot := reg.Slots[k][i]
			if tab.Keys()[slot] != reg.Gids[k][i] {
				t.Errorf("slot/gid mismatch at dest %d pos %d", reg.Dest[k], i)
			}
		}
	}
}

func TestGroupByOwnerPanicsOnSelf(t *testing.T) {
	tab := NewDirectTable(10)
	tab.Slot(5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for self-owned ghost point")
		}
	}()
	new(Registry).Build(tab, 0, 2, func(gid int) int { return 0 })
}

func TestDirectTableResetIsSparse(t *testing.T) {
	// Reset must not scan the whole mesh: after touching k entries, only
	// those are cleared. (White-box: verify correctness, not timing.)
	tab := NewDirectTable(1 << 20)
	for i := 0; i < 100; i++ {
		tab.Slot(i * 997)
	}
	tab.Reset()
	for i := 0; i < 100; i++ {
		if tab.Lookup(i*997) != -1 {
			t.Fatalf("entry %d survived reset", i)
		}
	}
}

func BenchmarkDirectTableSlot(b *testing.B) {
	tab := NewDirectTable(1 << 16)
	rng := rand.New(rand.NewSource(1))
	gids := make([]int, 4096)
	for i := range gids {
		gids[i] = rng.Intn(1 << 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Slot(gids[i&4095])
		if i&4095 == 4095 {
			tab.Reset()
		}
	}
}

func BenchmarkHashTableSlot(b *testing.B) {
	tab := NewHashTable(4096)
	rng := rand.New(rand.NewSource(1))
	gids := make([]int, 4096)
	for i := range gids {
		gids[i] = rng.Intn(1 << 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Slot(gids[i&4095])
		if i&4095 == 4095 {
			tab.Reset()
		}
	}
}
