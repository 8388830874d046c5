// Package mesh3 names the 3-D spellings of internal/mesh, whose one Grid
// and one Dist serve both dimensionalities: a Grid here is a mesh.Grid
// with Nz > 1, and its distribution is mesh.NewDistOrdered's.
package mesh3

import "picpar/internal/mesh"

// Grid is a 3-D mesh of Nx×Ny×Nz grid points (and cells) with periodic
// boundaries.
type Grid = mesh.Grid

// NewGrid builds a grid of nx×ny×nz unit cells.
func NewGrid(nx, ny, nz int) Grid { return mesh.NewGrid3(nx, ny, nz) }

// NewDistOrdered is mesh.NewDistOrdered: the distribution whose tiles line
// up with the equal P-ths of the named cell curve.
func NewDistOrdered(g Grid, p int, scheme string) (*mesh.Dist, error) {
	return mesh.NewDistOrdered(g, p, scheme)
}
