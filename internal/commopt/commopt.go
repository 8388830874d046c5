// Package commopt implements the communication optimisations of the paper's
// Section 3.2 for indirectly indexed arrays:
//
//   - Removal of duplicated accesses: the same off-processor grid point is
//     touched by many particles, but only one copy travels the network. Two
//     interchangeable structures assign accumulation slots to global ids — a
//     direct address table (O(1) lookups, memory proportional to the mesh)
//     and a hash table (memory proportional to the ghost set, extra search
//     cost).
//   - Communication coalescing: all ghost data destined for the same owner
//     rank is collected into a single message (see Registry.Build).
package commopt

import (
	"fmt"
	"slices"
)

// DupTable assigns dense accumulation slots to sparse global grid-point
// ids, deduplicating repeated accesses. Slots are numbered in first-seen
// order.
type DupTable interface {
	// Slot returns the slot for gid, allocating the next free slot the
	// first time gid is seen.
	Slot(gid int) int
	// Lookup returns the slot for gid, or −1 if gid was never seen.
	Lookup(gid int) int
	// Len returns the number of distinct ids seen.
	Len() int
	// Keys returns the gid of every slot, indexed by slot.
	Keys() []int32
	// Reset forgets all ids, keeping allocated memory where possible.
	Reset()
	// CostPerOp is the modelled δ units per Slot/Lookup call, used for the
	// hash-vs-direct ablation.
	CostPerOp() int
}

// DirectTable is a direct address table: one entry per global mesh grid
// point. Constant-time operations; memory proportional to the whole mesh
// (the trade-off the paper describes).
type DirectTable struct {
	slot []int32 // gid -> slot+1, 0 means absent
	keys []int32
}

// NewDirectTable creates a table for a mesh of m grid points.
func NewDirectTable(m int) *DirectTable {
	return &DirectTable{slot: make([]int32, m)}
}

// Slot implements DupTable.
func (t *DirectTable) Slot(gid int) int {
	if s := t.slot[gid]; s != 0 {
		return int(s - 1)
	}
	s := len(t.keys)
	t.keys = append(t.keys, int32(gid))
	t.slot[gid] = int32(s + 1)
	return s
}

// Lookup implements DupTable.
func (t *DirectTable) Lookup(gid int) int { return int(t.slot[gid]) - 1 }

// Len implements DupTable.
func (t *DirectTable) Len() int { return len(t.keys) }

// Keys implements DupTable.
func (t *DirectTable) Keys() []int32 { return t.keys }

// Reset implements DupTable. It clears only the touched entries, so the
// cost is proportional to the ghost set, not the mesh.
func (t *DirectTable) Reset() {
	for _, gid := range t.keys {
		t.slot[gid] = 0
	}
	t.keys = t.keys[:0]
}

// CostPerOp implements DupTable: one address computation.
func (t *DirectTable) CostPerOp() int { return 1 }

// HashTable is an open-addressing (linear probing) hash table from gid to
// slot. Memory is proportional to the number of distinct ghost points.
type HashTable struct {
	keys    []int32 // slot -> gid
	buckets []int32 // hash bucket -> slot+1, 0 means empty
	mask    uint32
}

// NewHashTable creates a hash table with capacity for about n distinct ids
// before growing.
func NewHashTable(n int) *HashTable {
	cap := 16
	for cap < n*2 {
		cap <<= 1
	}
	return &HashTable{buckets: make([]int32, cap), mask: uint32(cap - 1)}
}

func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// Slot implements DupTable.
func (t *HashTable) Slot(gid int) int {
	for {
		b := hash32(uint32(gid)) & t.mask
		for {
			s := t.buckets[b]
			if s == 0 {
				break
			}
			if t.keys[s-1] == int32(gid) {
				return int(s - 1)
			}
			b = (b + 1) & t.mask
		}
		if len(t.keys)*10 < len(t.buckets)*7 { // load factor < 0.7
			t.keys = append(t.keys, int32(gid))
			t.buckets[b] = int32(len(t.keys))
			return len(t.keys) - 1
		}
		t.grow()
	}
}

// Lookup implements DupTable.
func (t *HashTable) Lookup(gid int) int {
	b := hash32(uint32(gid)) & t.mask
	for {
		s := t.buckets[b]
		if s == 0 {
			return -1
		}
		if t.keys[s-1] == int32(gid) {
			return int(s - 1)
		}
		b = (b + 1) & t.mask
	}
}

func (t *HashTable) grow() {
	old := t.buckets
	t.buckets = make([]int32, len(old)*2)
	t.mask = uint32(len(t.buckets) - 1)
	for s, gid := range t.keys {
		b := hash32(uint32(gid)) & t.mask
		for t.buckets[b] != 0 {
			b = (b + 1) & t.mask
		}
		t.buckets[b] = int32(s + 1)
	}
}

// Len implements DupTable.
func (t *HashTable) Len() int { return len(t.keys) }

// Keys implements DupTable.
func (t *HashTable) Keys() []int32 { return t.keys }

// Reset implements DupTable.
func (t *HashTable) Reset() {
	t.keys = t.keys[:0]
	for i := range t.buckets {
		t.buckets[i] = 0
	}
}

// CostPerOp implements DupTable: hashing plus expected probes.
func (t *HashTable) CostPerOp() int { return 3 }

// Table kinds accepted by NewTable.
const (
	TableDirect = "direct"
	TableHash   = "hash"
)

// NewTable constructs a duplicate-removal table of the named kind for a
// mesh of m points, expecting about ghostHint distinct entries.
func NewTable(kind string, m, ghostHint int) (DupTable, error) {
	switch kind {
	case TableDirect:
		return NewDirectTable(m), nil
	case TableHash:
		return NewHashTable(ghostHint), nil
	default:
		return nil, fmt.Errorf("commopt: unknown table kind %q", kind)
	}
}

// Registry groups the slots of a duplicate-removal table by the rank that
// owns each grid point, realising communication coalescing: exactly one
// message per destination that appears. A Registry may be rebuilt in place
// every iteration via Build; all internal lists are reused, so a
// steady-state rebuild allocates nothing once the ghost set's shape has
// stabilised.
type Registry struct {
	// Dest[k] is the k-th destination rank with any traffic.
	Dest []int
	// Gids[k] lists the global point ids going to Dest[k].
	Gids [][]int32
	// Slots[k] lists the table slot of each gid in Gids[k], same order.
	Slots [][]int32

	// Per-rank grouping scratch, retained across Build calls. Gids/Slots
	// alias these lists, so a Registry's contents are valid only until the
	// next Build on the same Registry.
	byRank     [][]int32
	slotByRank [][]int32
}

// Build regroups the table's current contents in place using owner(gid) to
// locate each point's owning rank. Points owned by self must not be in the
// table (callers accumulate those directly) and cause a panic, as they
// indicate a misrouted access.
func (reg *Registry) Build(t DupTable, self int, p int, owner func(gid int) int) {
	if cap(reg.byRank) < p {
		reg.byRank = make([][]int32, p)
		reg.slotByRank = make([][]int32, p)
	}
	reg.byRank = reg.byRank[:p]
	reg.slotByRank = reg.slotByRank[:p]
	for d := 0; d < p; d++ {
		reg.byRank[d] = reg.byRank[d][:0]
		reg.slotByRank[d] = reg.slotByRank[d][:0]
	}
	for slot, gid := range t.Keys() {
		o := owner(int(gid))
		if o == self {
			panic(fmt.Sprintf("commopt: self-owned point %d in ghost table of rank %d", gid, self))
		}
		if n := len(reg.byRank[o]); n == cap(reg.byRank[o]) {
			// No list outgrows the table: size it to the table, so a
			// creeping ghost set regrows it rarely.
			reg.byRank[o] = slices.Grow(reg.byRank[o], t.Len()-n)
			reg.slotByRank[o] = slices.Grow(reg.slotByRank[o], t.Len()-n)
		}
		reg.byRank[o] = append(reg.byRank[o], gid)
		reg.slotByRank[o] = append(reg.slotByRank[o], int32(slot))
	}
	reg.Dest = reg.Dest[:0]
	reg.Gids = reg.Gids[:0]
	reg.Slots = reg.Slots[:0]
	for d := 0; d < p; d++ {
		if len(reg.byRank[d]) == 0 {
			continue
		}
		reg.Dest = append(reg.Dest, d)
		reg.Gids = append(reg.Gids, reg.byRank[d])
		reg.Slots = append(reg.Slots, reg.slotByRank[d])
	}
}
