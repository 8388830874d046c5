// Package sfc provides the space-filling-curve index schemes the paper uses
// to linearise the cell space: Hilbert indexing (the paper's proposal),
// snake-like (boustrophedon) indexing (the paper's comparison baseline),
// plus row-major and Morton orders as additional baselines.
//
// An Indexer maps the cells of a W×H×D box to a one-dimensional index and
// back; a 2-D grid is the one-plane box D = 1, the convention mesh.Grid and
// field.Local use. The paper notes that its indexing "can be generalized to
// n-dimensions and used to convert an n-dimensional index into a
// one-dimensional index such that proximity in the n-dimensions is
// generally maintained": Hilbert indexing preserves spatial proximity along
// every dimension, which is what makes index-sorted particle subdomains
// compact and cheap to communicate with their aligned mesh subdomains.
package sfc

import "fmt"

// Indexer linearises a W×H×D box of cells. Implementations must be
// bijections from {0..W-1}×{0..H-1}×{0..D-1} onto {0..W*H*D-1}.
type Indexer interface {
	// Index returns the 1-D index of cell (x, y, z).
	Index(x, y, z int) int
	// Coords inverts Index.
	Coords(idx int) (x, y, z int)
	// Size returns the box extents (W, H, D).
	Size() (w, h, d int)
	// Name identifies the scheme ("hilbert", "snake", ...).
	Name() string
}

// Scheme names accepted by New and New3.
const (
	SchemeHilbert  = "hilbert"
	SchemeSnake    = "snake"
	SchemeRowMajor = "rowmajor"
	SchemeMorton   = "morton"
)

// New constructs the named Indexer for a w×h plane (D = 1). Hilbert and
// Morton walk the curve of the enclosing power-of-two square, Hilbert in
// the classic quadrant-rotation formulation, and compact its ranks onto
// 0..w*h−1.
func New(scheme string, w, h int) (Indexer, error) {
	return build(scheme, w, h, 1, 2, hilbertAxes2, mortonAxes2)
}

// New3 constructs the named Indexer for a w×h×d box. Hilbert and Morton
// walk the curve of the enclosing power-of-two cube, Hilbert in Skilling's
// 3-D formulation — even when d = 1, where it orders a plane differently
// from New's — and compact its ranks onto 0..w*h*d−1.
func New3(scheme string, w, h, d int) (Indexer, error) {
	return build(scheme, w, h, d, 3, hilbertAxes3, mortonAxes3)
}

// MustNew is New for known-good arguments; it panics on error.
func MustNew(scheme string, w, h int) Indexer {
	ix, err := New(scheme, w, h)
	if err != nil {
		panic(err)
	}
	return ix
}

// build constructs the named Indexer for a w×h×d box. Hilbert and Morton
// walk the dims-dimensional curve that hilbert or morton decodes.
func build(scheme string, w, h, d, dims int, hilbert, morton decoder) (Indexer, error) {
	if w <= 0 || h <= 0 || d <= 0 {
		return nil, fmt.Errorf("sfc: invalid grid %dx%dx%d", w, h, d)
	}
	b := rowMajor{w, h, d}
	switch scheme {
	case SchemeHilbert:
		return compact(b, scheme, dims, hilbert), nil
	case SchemeMorton:
		return compact(b, scheme, dims, morton), nil
	case SchemeSnake:
		return snake{b}, nil
	case SchemeRowMajor:
		return b, nil
	default:
		return nil, fmt.Errorf("sfc: unknown scheme %q", scheme)
	}
}

// rowMajor orders cells x fastest, then y, then z. Indices are close along
// a row but distance W apart across rows.
type rowMajor struct{ w, h, d int }

// Index implements Indexer.
func (r rowMajor) Index(x, y, z int) int { return (z*r.h+y)*r.w + x }

// Coords implements Indexer.
func (r rowMajor) Coords(idx int) (int, int, int) {
	return idx % r.w, idx / r.w % r.h, idx / (r.w * r.h)
}

// Size implements Indexer.
func (r rowMajor) Size() (int, int, int) { return r.w, r.h, r.d }

// Name implements Indexer.
func (rowMajor) Name() string { return SchemeRowMajor }

// snake is the boustrophedon order: x alternates direction every row and y
// every plane, so consecutive indices are always spatially adjacent — a
// Hamiltonian path on the box grid — but the curve preserves proximity in
// essentially one dimension: index distance between y neighbours is still
// Θ(W). This is the "snakelike indexing" the paper compares Hilbert
// indexing against.
type snake struct{ rowMajor }

// Index implements Indexer. The x direction alternates with the global row
// parity (z·H + y on even planes, reversed y on odd ones), so the path stays
// continuous across plane seams even for odd H.
func (s snake) Index(x, y, z int) int {
	if z%2 == 1 {
		y = s.h - 1 - y
	}
	row := z*s.h + y
	if row%2 == 1 {
		x = s.w - 1 - x
	}
	return row*s.w + x
}

// Coords implements Indexer.
func (s snake) Coords(idx int) (int, int, int) {
	row, x := idx/s.w, idx%s.w
	if row%2 == 1 {
		x = s.w - 1 - x
	}
	z, y := row/s.h, row%s.h
	if z%2 == 1 {
		y = s.h - 1 - y
	}
	return x, y, z
}

// Name implements Indexer.
func (snake) Name() string { return SchemeSnake }
