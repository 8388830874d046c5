// Indexing: visualise how Hilbert and snakelike orderings carve a 32x16
// cell grid into 8 processor subdomains (the paper's Figures 9-10), and
// how the subdomain shapes differ: Hilbert chunks are blocky and compact,
// snake chunks are long thin strips with larger perimeters — which is
// exactly why Hilbert-indexed particle subdomains generate fewer ghost
// grid points.
//
//	go run ./examples/indexing
package main

import (
	"fmt"
	"log"

	"picpar"
)

const (
	w, h  = 32, 16
	ranks = 8
)

func main() {
	for _, scheme := range []string{picpar.IndexHilbert, picpar.IndexSnake, picpar.IndexMorton} {
		ix, err := picpar.NewIndexer(scheme, w, h)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s ordering: cell -> rank map (%d ranks), one letter per cell\n", scheme, ranks)
		perim := 0
		for y := h - 1; y >= 0; y-- {
			for x := 0; x < w; x++ {
				r := rankOf(ix.Index(x, y, 0))
				fmt.Printf("%c", 'a'+r)
				// Count subdomain boundary edges (perimeter proxy).
				if x+1 < w && rankOf(ix.Index(x+1, y, 0)) != r {
					perim++
				}
				if y+1 < h && rankOf(ix.Index(x, y+1, 0)) != r {
					perim++
				}
			}
			fmt.Println()
		}
		fmt.Printf("internal boundary edges: %d (smaller = more compact subdomains)\n\n", perim)
	}
	fmt.Println("Hilbert should show compact blocks, snake long stripes; the boundary")
	fmt.Println("count is the communication-perimeter proxy from the paper's Section 5.1.")
}

// rankOf assigns equal contiguous index ranges to ranks.
func rankOf(idx int) int {
	share := w * h / ranks
	r := idx / share
	if r >= ranks {
		r = ranks - 1
	}
	return r
}
