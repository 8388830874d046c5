package sfc

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// frozenGroup is a family of grids whose Index tables are hashed together.
type frozenGroup struct {
	name  string
	boxes [][3]int
	box   bool // New3 (the box curve) rather than New (the plane curve)
}

func frozenGroups() []frozenGroup {
	var planes, boxes [][3]int
	for h := 1; h <= 16; h++ {
		for w := 1; w <= 16; w++ {
			planes = append(planes, [3]int{w, h, 1})
		}
	}
	for d := 1; d <= 6; d++ {
		for h := 1; h <= 6; h++ {
			for w := 1; w <= 6; w++ {
				boxes = append(boxes, [3]int{w, h, d})
			}
		}
	}
	return []frozenGroup{
		{"New w,h<=16", planes, false},
		{"New 256x128", [][3]int{{256, 128, 1}}, false},
		{"New 96x64", [][3]int{{96, 64, 1}}, false},
		{"New 100x100", [][3]int{{100, 100, 1}}, false},
		{"New3 w,h,d<=6", boxes, true},
		{"New3 w,h<=16,d=1", planes, true},
		{"New3 16x16x16", [][3]int{{16, 16, 16}}, true},
		{"New3 24x24x24", [][3]int{{24, 24, 24}}, true},
		{"New3 20x12x8", [][3]int{{20, 12, 8}}, true},
	}
}

// frozenSum hashes the scheme's name and Index table, cells taken x
// fastest, on every grid of the group (FNV-1a, 64-bit).
func frozenSum(t *testing.T, scheme string, g frozenGroup) uint64 {
	t.Helper()
	sum := fnv.New64a()
	for _, b := range g.boxes {
		var ix Indexer
		var err error
		if g.box {
			ix, err = New3(scheme, b[0], b[1], b[2])
		} else {
			ix, err = New(scheme, b[0], b[1])
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(sum, "%s %v:", ix.Name(), b)
		for z := 0; z < b[2]; z++ {
			for y := 0; y < b[1]; y++ {
				for x := 0; x < b[0]; x++ {
					idx := uint32(ix.Index(x, y, z))
					sum.Write([]byte{byte(idx), byte(idx >> 8), byte(idx >> 16), byte(idx >> 24)})
				}
			}
		}
	}
	return sum.Sum64()
}

// TestFrozenCurveBits pins every scheme's Index table, bit for bit, on the
// planes and boxes the runs, the aligner's processor grids and the
// benchmark meshes use. A plane given to New3 keeps the box curve's walk
// (Skilling's 3-D Hilbert at d = 1), which the "New3 …d=1" group holds.
// The sums are recorded values, not recomputed from a reference, so any
// change to any table fails the test.
func TestFrozenCurveBits(t *testing.T) {
	want := map[string][4]uint64{ // hilbert, snake, rowmajor, morton
		"New w,h<=16":      {0x87f6564547af4c25, 0x581dcbb1dbdf91e5, 0xd921f26f32b5c525, 0x57757ba05256d48d},
		"New 256x128":      {0x0994ef2ba11f3f58, 0xf4371e2f57c4ca7a, 0xc5bdebc410f54c27, 0x54378cf6e882c645},
		"New 96x64":        {0x29ec1f3834e2301b, 0x1204aade695555f9, 0x62b36df59acc85ec, 0xbe27e63cc5cdf46e},
		"New 100x100":      {0xfdc708dce5f35340, 0x0a73c4bfc0035c4e, 0xce3277b4b3c8b367, 0xac8fc1b40f3b03b1},
		"New3 w,h,d<=6":    {0x4901334d42ceba6e, 0x7473c1e9ab158466, 0x644e039dc25e8cc4, 0xa9e46c2a9efd05d8},
		"New3 w,h<=16,d=1": {0x4e444ca4d28b4c85, 0x581dcbb1dbdf91e5, 0xd921f26f32b5c525, 0x57757ba05256d48d},
		"New3 16x16x16":    {0x1c9c1655a982512e, 0xff22930d7bec4954, 0x4dde1593312ca20f, 0xc564049fbc729681},
		"New3 24x24x24":    {0xd2bd6f012471adc5, 0x8483d565af348bbb, 0x502f0f3d196498e4, 0xcafb335368887ade},
		"New3 20x12x8":     {0xb1a07d01492ec4b6, 0x4cfbf3aa0595a4dc, 0x392050cf4284f139, 0xfb3a9f93b7b732cb},
	}
	schemes := [4]string{SchemeHilbert, SchemeSnake, SchemeRowMajor, SchemeMorton}
	for _, g := range frozenGroups() {
		var got [4]uint64
		for i, scheme := range schemes {
			got[i] = frozenSum(t, scheme, g)
		}
		if got != want[g.name] {
			t.Errorf("%q: sums %#x, want %#x", g.name, got, want[g.name])
		}
	}
}
