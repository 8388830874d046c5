// Package mesh3 names the 3-D spelling of internal/mesh's ordered
// distribution: mesh's one Grid and one Dist serve both dimensionalities,
// and a 3-D grid is a mesh.Grid with Nz > 1 (mesh.NewGrid3).
package mesh3

import "picpar/internal/mesh"

// NewDistOrdered is mesh.NewDistOrdered: the distribution whose tiles line
// up with the equal P-ths of the named cell curve.
func NewDistOrdered(g mesh.Grid, p int, scheme string) (*mesh.Dist, error) {
	return mesh.NewDistOrdered(g, p, scheme)
}
