package mesh

import (
	"testing"

	"picpar/internal/sfc"
)

func TestNewDistOrderedBijection(t *testing.T) {
	for _, scheme := range []string{sfc.SchemeHilbert, sfc.SchemeSnake, sfc.SchemeRowMajor} {
		d, err := NewDistOrdered(NewGrid(32, 16), 8, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		// Every point owned exactly once; RankCoords inverts RankAt.
		owned := make([]int, 32*16)
		for r := 0; r < 8; r++ {
			px, py, pz := d.RankCoords(r)
			if got := d.RankAt(px, py, pz); got != r {
				t.Fatalf("%s: RankAt(RankCoords(%d)) = %d", scheme, r, got)
			}
			lo, hi := d.Bounds(r)
			for j := lo[1]; j < hi[1]; j++ {
				for i := lo[0]; i < hi[0]; i++ {
					owned[d.G.PointIndex(i, j, 0)]++
					if d.OwnerOfPoint(i, j, 0) != r {
						t.Fatalf("%s: owner of (%d,%d) != %d", scheme, i, j, r)
					}
				}
			}
		}
		for id, c := range owned {
			if c != 1 {
				t.Fatalf("%s: point %d owned %d times", scheme, id, c)
			}
		}
	}
}

func TestNewDistOrderedHilbertAdjacency(t *testing.T) {
	// Consecutive ranks own adjacent tiles under the Hilbert numbering.
	d, err := NewDistOrdered(NewGrid(64, 64), 16, sfc.SchemeHilbert)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 16; r++ {
		ax, ay, _ := d.RankCoords(r - 1)
		bx, by, _ := d.RankCoords(r)
		if dx, dy := ax-bx, ay-by; dx*dx+dy*dy != 1 {
			t.Errorf("ranks %d,%d tiles (%d,%d),(%d,%d) not adjacent", r-1, r, ax, ay, bx, by)
		}
	}
}

func TestRenumberRejectsNonBijection(t *testing.T) {
	d, err := NewDist(NewGrid(8, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Renumber(func(tx, ty, tz int) int { return 0 }); err == nil {
		t.Error("expected error for constant ordering")
	}
	if err := d.Renumber(func(tx, ty, tz int) int { return -1 }); err == nil {
		t.Error("expected error for out-of-range ordering")
	}
}
