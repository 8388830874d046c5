package geom

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"picpar/internal/commopt"
	"picpar/internal/field"
	"picpar/internal/machine"
	"picpar/internal/mesh"
	"picpar/internal/mesh3"
	"picpar/internal/particle"
	"picpar/internal/pusher"
	"picpar/internal/raceflag"
	"picpar/internal/sfc"
)

const testDt = 0.2

// kernelCase is one geometry under test with its physical extents (the
// third is 0 in 2-D) and its cell sizes.
type kernelCase struct {
	name   string
	ge     Geometry
	l, d   [3]float64
	bounds func(r int) [3][2]int // rank r's owned half-open range per axis
}

func case2(t *testing.T, g mesh.Grid, p int) kernelCase {
	t.Helper()
	dist, err := mesh.NewDistOrdered(g, p, sfc.SchemeSnake)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sfc.New(sfc.SchemeSnake, g.Nx, g.Ny)
	if err != nil {
		t.Fatal(err)
	}
	return kernelCase{
		name: fmt.Sprintf("%dx%d/L=%gx%g/P=%d", g.Nx, g.Ny, g.Lx, g.Ly, p),
		ge:   New2(g, dist, ix),
		l:    [3]float64{g.Lx, g.Ly}, d: [3]float64{g.Dx(), g.Dy()},
		bounds: func(r int) [3][2]int {
			i0, i1, j0, j1 := dist.Bounds(r)
			return [3][2]int{{i0, i1}, {j0, j1}}
		},
	}
}

func case3(t *testing.T, g mesh3.Grid, p int) kernelCase {
	t.Helper()
	dist, err := mesh3.NewDistOrdered(g, p, sfc.SchemeSnake)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sfc.New3(sfc.SchemeSnake, g.Nx, g.Ny, g.Nz)
	if err != nil {
		t.Fatal(err)
	}
	return kernelCase{
		name: fmt.Sprintf("%dx%dx%d/L=%gx%gx%g/P=%d", g.Nx, g.Ny, g.Nz, g.Lx, g.Ly, g.Lz, p),
		ge:   New3(g, dist, ix),
		l:    [3]float64{g.Lx, g.Ly, g.Lz}, d: [3]float64{g.Dx(), g.Dy(), g.Dz()},
		bounds: func(r int) [3][2]int {
			i0, i1, j0, j1, k0, k1 := dist.Bounds(r)
			return [3][2]int{{i0, i1}, {j0, j1}, {k0, k1}}
		},
	}
}

func kernelCases(t *testing.T) []kernelCase {
	var cs []kernelCase
	for _, p := range []int{1, 4, 6} {
		cs = append(cs,
			case2(t, mesh.NewGrid(32, 16), p),                        // power of two; 6 ranks do not divide 32
			case2(t, mesh.NewGrid(48, 20), p),                        // anisotropic, not a power of two
			case2(t, mesh.Grid{Nx: 48, Ny: 20, Lx: 30, Ly: 27}, p),   // cells 0.625 × 1.35
			case2(t, mesh.Grid{Nx: 48, Ny: 20, Lx: 13, Ly: 11.1}, p), // one ulp below L divides to N
			case3(t, mesh3.NewGrid(8, 8, 8), p),
			case3(t, mesh3.NewGrid(12, 10, 6), p),
			case3(t, mesh3.Grid{Nx: 12, Ny: 10, Nz: 6, Lx: 9, Ly: 13, Lz: 4.2}, p),
		)
	}
	return cs
}

// saltedStore returns a random population of c's domain salted with the
// positions where the interior guard and the periodic wrap decide: exactly
// on every block edge, just below it, in the last (wrap) column/row/slab,
// at 0 and at the largest value below L — alone on one axis and on all.
func saltedStore(c kernelCase, rng *rand.Rand) *particle.Store {
	dims := c.ge.Dims()
	s := c.ge.NewStore(0, -1.5, 1)
	add := func(pos [3]float64) { addParticle(s, pos, rng) }
	random := func() (pos [3]float64) {
		for d := 0; d < dims; d++ {
			pos[d] = rng.Float64() * c.l[d]
		}
		return pos
	}
	for i := 0; i < 1500; i++ {
		add(random())
	}
	var special [3][]float64
	for d := 0; d < dims; d++ {
		n := int(math.Round(c.l[d] / c.d[d]))
		special[d] = []float64{0, math.Nextafter(c.l[d], 0), (float64(n) - 0.7) * c.d[d], (float64(n) - 1) * c.d[d]}
		for r := 0; r < c.ge.Ranks(); r++ {
			for _, edge := range c.bounds(r)[d] {
				x := float64(edge) * c.d[d]
				special[d] = append(special[d], x, math.Nextafter(x, 0), x-0.4*c.d[d], x+0.4*c.d[d])
			}
		}
		for k, x := range special[d] {
			if x < 0 || x >= c.l[d] {
				special[d][k] = 0
			}
		}
	}
	for d := 0; d < dims; d++ {
		for _, x := range special[d] {
			pos := random()
			pos[d] = x
			add(pos)
		}
	}
	for i := 0; i < 400; i++ {
		var pos [3]float64
		for d := 0; d < dims; d++ {
			pos[d] = special[d][rng.Intn(len(special[d]))]
		}
		add(pos)
	}
	return s
}

// addParticle appends a particle at pos with a random momentum.
func addParticle(s *particle.Store, pos [3]float64, rng *rand.Rand) {
	px, py, pz := 0.5*rng.NormFloat64(), 0.5*rng.NormFloat64(), 0.5*rng.NormFloat64()
	if s.Dims() == 3 {
		s.Append3(pos[0], pos[1], pos[2], px, py, pz, float64(s.Len()))
	} else {
		s.Append(pos[0], pos[1], px, py, pz, float64(s.Len()))
	}
}

// sortedByKey returns s's particles in (cell key, index) order, as a
// balanced rank holds them: the particles of one cell form one run.
func sortedByKey(ge Geometry, s *particle.Store) *particle.Store {
	idx := make([]int, s.Len())
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(ge.CellKey(s, a), ge.CellKey(s, b)) })
	out := ge.NewStore(s.Len(), s.Charge, s.Mass)
	out.AppendIndices(s, idx)
	return out
}

// cellRuns returns long runs of particles sharing a cell, in key order,
// over cells that lie on a rank's block edge or in the high-edge row whose
// +1 vertices wrap along some axes and anywhere along the others: mixed
// owned and ghost cells for one rank, all-ghost or interior for another.
// A tail then leaves cells and comes back — c, c+e_d, c along each axis d,
// so neighbouring runs differ on one axis only — and the store ends in
// the cell it starts in.
func cellRuns(c kernelCase, rng *rand.Rand) *particle.Store {
	dims := c.ge.Dims()
	var n [3]int
	var edges [3][]int
	for d := 0; d < dims; d++ {
		n[d] = int(math.Round(c.l[d] / c.d[d]))
		edges[d] = []int{n[d] - 1}
		for r := 0; r < c.ge.Ranks(); r++ {
			for _, e := range c.bounds(r)[d] {
				edges[d] = append(edges[d], (e+n[d]-1)%n[d], e%n[d])
			}
		}
	}
	s := c.ge.NewStore(0, 0.75, 1)
	run := func(cell [3]int) {
		for k := 3 + rng.Intn(8); k > 0; k-- {
			var pos [3]float64
			for d := 0; d < dims; d++ {
				pos[d] = min((float64(cell[d])+rng.Float64())*c.d[d], math.Nextafter(c.l[d], 0))
			}
			addParticle(s, pos, rng)
		}
	}
	var cells [][3]int
	for i := 0; i < 80; i++ {
		var cell [3]int
		for d := 0; d < dims; d++ {
			if cell[d] = rng.Intn(n[d]); rng.Intn(3) > 0 {
				cell[d] = edges[d][rng.Intn(len(edges[d]))]
			}
		}
		cells = append(cells, cell)
		run(cell)
	}
	s = sortedByKey(c.ge, s)
	for _, cell := range cells[:8] {
		for d := 0; d < dims; d++ {
			next := cell
			next[d] = (cell[d] + 1) % n[d]
			run(cell)
			run(next)
		}
		run(cell)
	}
	first := [3]float64{s.X[0], s.Y[0]}
	if dims == 3 {
		first[2] = s.Z[0]
	}
	for k := 0; k < 4; k++ {
		addParticle(s, first, rng)
	}
	return s
}

// allArrays lists f's ten component arrays in fieldNames order.
func allArrays(f *field.Local) [10][]float64 {
	a := f.Arrays()
	return [10][]float64{a.Ex, a.Ey, a.Ez, a.Bx, a.By, a.Bz, a.Jx, a.Jy, a.Jz, a.Rho}
}

// randomFieldsPair returns two field blocks of rank r with identical random E and
// B (halo slots included) and zero sources.
func randomFieldsPair(ge Geometry, r int, rng *rand.Rand) (*field.Local, *field.Local) {
	f, g := ge.NewFields(r, nil), ge.NewFields(r, nil)
	fa, ga := allArrays(f), allArrays(g)
	for c := 0; c < 6; c++ {
		for i := range fa[c] {
			fa[c][i] = rng.NormFloat64()
			ga[c][i] = fa[c][i]
		}
	}
	return f, g
}

// refDeposit is the per-vertex scatter the range kernel replaced, written
// over the interface alone: Footprint, Local.Slot, DupTable.
func refDeposit(ge Geometry, s *particle.Store, f *field.Local, table commopt.DupTable, ghostVals *[]float64) int {
	a := f.Arrays()
	var fp Footprint
	q := s.Charge
	ops := 0
	for i := 0; i < s.Len(); i++ {
		ge.Footprint(s, i, &fp)
		gamma := s.Gamma(i)
		vx, vy, vz := s.Px[i]/gamma, s.Py[i]/gamma, s.Pz[i]/gamma
		for k := 0; k < fp.N; k++ {
			wq := fp.W[k] * q
			gid := int(fp.Gid[k])
			if c := f.Slot(gid); c >= 0 {
				a.Jx[c] += wq * vx
				a.Jy[c] += wq * vy
				a.Jz[c] += wq * vz
				a.Rho[c] += wq
				continue
			}
			slot := table.Slot(gid)
			if 4*slot == len(*ghostVals) {
				*ghostVals = append(*ghostVals, 0, 0, 0, 0)
			}
			(*ghostVals)[4*slot] += wq * vx
			(*ghostVals)[4*slot+1] += wq * vy
			(*ghostVals)[4*slot+2] += wq * vz
			(*ghostVals)[4*slot+3] += wq
			ops++
		}
	}
	return ops
}

// refGatherPush is the per-vertex gather and the one-particle push.
func refGatherPush(ge Geometry, s *particle.Store, f *field.Local, table commopt.DupTable, ghostEB []float64) {
	a := f.Arrays()
	var fp Footprint
	for i := 0; i < s.Len(); i++ {
		ge.Footprint(s, i, &fp)
		var ex, ey, ez, bx, by, bz float64
		for k := 0; k < fp.N; k++ {
			gid := int(fp.Gid[k])
			wk := fp.W[k]
			if c := f.Slot(gid); c >= 0 {
				ex += wk * a.Ex[c]
				ey += wk * a.Ey[c]
				ez += wk * a.Ez[c]
				bx += wk * a.Bx[c]
				by += wk * a.By[c]
				bz += wk * a.Bz[c]
				continue
			}
			o := 6 * table.Lookup(gid)
			ex += wk * ghostEB[o]
			ey += wk * ghostEB[o+1]
			ez += wk * ghostEB[o+2]
			bx += wk * ghostEB[o+3]
			by += wk * ghostEB[o+4]
			bz += wk * ghostEB[o+5]
		}
		pusher.BorisPush(s, i, ex, ey, ez, bx, by, bz, testDt)
	}
}

// refObserve is the cost ledger's observation as a per-particle walk over
// the interface: Footprint, Local.Slot for each vertex, CellKey.
func refObserve(ge Geometry, s *particle.Store, lo, hi int, f *field.Local, led *machine.CostLedger, base, perGhost int) {
	var fp Footprint
	for i := lo; i < hi; i++ {
		ge.Footprint(s, i, &fp)
		ghosts := 0
		for k := 0; k < fp.N; k++ {
			if f.Slot(int(fp.Gid[k])) < 0 {
				ghosts++
			}
		}
		led.ObserveN(int(ge.CellKey(s, i)), base+ghosts*perGhost)
	}
}

// refMove advances positions with the formula of the paper's push step and
// a wrap written here.
func refMove(c kernelCase, s *particle.Store) {
	wrap := func(x, l float64) float64 {
		for x < 0 {
			x += l
		}
		for x >= l {
			x -= l
		}
		return x
	}
	for i := 0; i < s.Len(); i++ {
		gamma := math.Sqrt(1 + (s.Px[i]*s.Px[i] + s.Py[i]*s.Py[i] + s.Pz[i]*s.Pz[i]))
		s.X[i] = wrap(s.X[i]+s.Px[i]/gamma*testDt, c.l[0])
		s.Y[i] = wrap(s.Y[i]+s.Py[i]/gamma*testDt, c.l[1])
		if s.Z != nil {
			s.Z[i] = wrap(s.Z[i]+s.Pz[i]/gamma*testDt, c.l[2])
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameStore(t *testing.T, what string, got, want *particle.Store) {
	t.Helper()
	sameBits(t, what+" X", got.X, want.X)
	sameBits(t, what+" Y", got.Y, want.Y)
	sameBits(t, what+" Z", got.Z, want.Z)
	sameBits(t, what+" Px", got.Px, want.Px)
	sameBits(t, what+" Py", got.Py, want.Py)
	sameBits(t, what+" Pz", got.Pz, want.Pz)
}

var fieldNames = [10]string{"Ex", "Ey", "Ez", "Bx", "By", "Bz", "Jx", "Jy", "Jz", "Rho"}

// TestRangeKernelsMatchPerVertexReference runs one scatter → gather/push →
// move step through the range kernels (over sub-ranges that split the store
// unevenly) and through the per-vertex reference loops above, on every rank
// of every case with both table kinds, and requires every float the step
// touches to agree bit for bit, the ghost table to hold the same points in
// the same order, and the off-processor count to match. It runs the salted
// store, the same store in key order, and cellRuns' long same-cell runs,
// where the kernels resolve a cell once per run. The gather reads a table
// reset and refilled in reverse order, so its targets must come from the
// table it is given, not from the scatter.
func TestRangeKernelsMatchPerVertexReference(t *testing.T) {
	for _, c := range kernelCases(t) {
		rng := rand.New(rand.NewSource(16))
		salted := saltedStore(c, rng)
		for _, st := range []struct {
			name  string
			store *particle.Store
		}{{"salted", salted}, {"key-sorted", sortedByKey(c.ge, salted)}, {"cell runs", cellRuns(c, rng)}} {
			for r := 0; r < c.ge.Ranks(); r++ {
				for _, kind := range []string{commopt.TableDirect, commopt.TableHash} {
					checkStep(t, fmt.Sprintf("%s/%s/rank %d/%s", c.name, st.name, r, kind), c, r, kind, st.store, rng)
				}
			}
		}
	}
}

// checkStep is one rank and table kind of TestRangeKernelsMatchPerVertexReference.
func checkStep(t *testing.T, name string, c kernelCase, r int, kind string, store *particle.Store, rng *rand.Rand) {
	t.Helper()
	n := store.Len()
	cuts := []int{0, n / 3, n/3 + 1, n/3 + 1, n - 7, n}
	fK, fR := randomFieldsPair(c.ge, r, rng)
	tabK, _ := commopt.NewTable(kind, c.ge.NumPoints(), 16)
	tabR, _ := commopt.NewTable(kind, c.ge.NumPoints(), 16)
	sK, sR := store.Clone(), store.Clone()
	var gvK, gvR []float64

	opsK := 0
	for k := 1; k < len(cuts); k++ {
		opsK += c.ge.Deposit(sK, cuts[k-1], cuts[k], fK, tabK, &gvK)
	}
	opsR := refDeposit(c.ge, sR, fR, tabR, &gvR)
	if opsK != opsR {
		t.Fatalf("%s: Deposit counted %d off-processor contributions, want %d", name, opsK, opsR)
	}
	if opsR == 0 && c.ge.Ranks() > 1 {
		t.Fatalf("%s: no particle took the ghost path", name)
	}
	keysK, keysR := tabK.Keys(), tabR.Keys()
	if len(keysK) != len(keysR) {
		t.Fatalf("%s: %d ghost points, want %d", name, len(keysK), len(keysR))
	}
	for i := range keysK {
		if keysK[i] != keysR[i] {
			t.Fatalf("%s: ghost slot %d holds point %d, want %d", name, i, keysK[i], keysR[i])
		}
	}
	sameBits(t, name+" ghostVals", gvK, gvR)
	aK, aR := allArrays(fK), allArrays(fR)
	for i := range aK {
		sameBits(t, name+" after Deposit, "+fieldNames[i], aK[i], aR[i])
	}

	ghostEB := make([]float64, 6*tabR.Len())
	for i := range ghostEB {
		ghostEB[i] = rng.NormFloat64()
	}
	keys := slices.Clone(keysK)
	tabK.Reset()
	ghostEBK := make([]float64, len(ghostEB))
	for i := len(keys) - 1; i >= 0; i-- {
		copy(ghostEBK[6*tabK.Slot(int(keys[i])):], ghostEB[6*i:6*i+6])
	}
	for k := 1; k < len(cuts); k++ {
		c.ge.GatherPush(sK, cuts[k-1], cuts[k], fK, tabK, ghostEBK, testDt)
	}
	refGatherPush(c.ge, sR, fR, tabR, ghostEB)
	sameStore(t, name+" after GatherPush,", sK, sR)

	for k := 1; k < len(cuts); k++ {
		c.ge.MoveRange(sK, cuts[k-1], cuts[k], testDt)
	}
	refMove(c, sR)
	sameStore(t, name+" after MoveRange,", sK, sR)
	for i := range aK {
		sameBits(t, name+" after the step, "+fieldNames[i], aK[i], aR[i])
	}
}

// TestObserveCostsMatchesPerVertexReference books the salted stores of
// every rank of every case through ObserveCosts and through refObserve,
// in runs of particles whose reference cells are distinct, and requires
// each run to leave both ledgers bit-identical. Both ledgers also see one
// unit in a cell outside the run, so after a full-weight Commit a
// particle's wrong cell shows in the counts and its wrong units in every
// cell's share of the cost. The key-sorted salted store and cellRuns'
// store, where ObserveCosts reuses a cell's key and units along a run, are
// booked in one call each and compared the same way.
func TestObserveCostsMatchesPerVertexReference(t *testing.T) {
	const base, perGhost = 100, 7
	for _, c := range kernelCases(t) {
		rng := rand.New(rand.NewSource(35))
		s := saltedStore(c, rng)
		n, cells := s.Len(), c.ge.NumCells()
		runs := []*particle.Store{sortedByKey(c.ge, s), cellRuns(c, rng)}
		for r := 0; r < c.ge.Ranks(); r++ {
			f := c.ge.NewFields(r, nil)
			for k, rs := range runs {
				ledK, ledR := machine.NewCostLedger(cells, 1), machine.NewCostLedger(cells, 1)
				c.ge.ObserveCosts(rs, 0, rs.Len(), f, ledK, base, perGhost)
				refObserve(c.ge, rs, 0, rs.Len(), f, ledR, base, perGhost)
				ledK.Commit(1)
				ledR.Commit(1)
				sameBits(t, fmt.Sprintf("%s/rank %d, run store %d: ledger", c.name, r, k), ledK.Export(nil), ledR.Export(nil))
			}
			ledK, ledR := machine.NewCostLedger(cells, 1), machine.NewCostLedger(cells, 1)
			var expK, expR []float64
			run := make(map[int]bool)
			lo := 0
			for i := 0; i <= n; i++ {
				key := -1
				if i < n {
					key = int(c.ge.CellKey(s, i))
				}
				if i < n && !run[key] {
					run[key] = true
					continue
				}
				outside := 0
				for run[outside] {
					outside++
				}
				ledK.ObserveN(outside, 1)
				ledR.ObserveN(outside, 1)
				c.ge.ObserveCosts(s, lo, i, f, ledK, base, perGhost)
				refObserve(c.ge, s, lo, i, f, ledR, base, perGhost)
				ledK.Commit(1)
				ledR.Commit(1)
				expK, expR = ledK.Export(expK[:0]), ledR.Export(expR[:0])
				sameBits(t, fmt.Sprintf("%s/rank %d, particles [%d, %d): ledger", c.name, r, lo, i), expK, expR)
				clear(run)
				run[key], lo = true, i
			}
		}
	}
}

// TestInteriorPathTaken: the cases above would pass with an interior guard
// that never fires. A store confined to the strict interior of one rank's
// block must deposit and gather without touching the ghost table.
func TestInteriorPathTaken(t *testing.T) {
	for _, c := range kernelCases(t) {
		r := c.ge.Ranks() - 1
		b := c.bounds(r)
		for d := 0; d < c.ge.Dims(); d++ {
			if b[d][1]-b[d][0] < 2 {
				t.Fatalf("%s: rank %d's block is one point wide along axis %d and has no interior", c.name, r, d)
			}
		}
		rng := rand.New(rand.NewSource(3))
		s := c.ge.NewStore(0, 1, 1)
		for i := 0; i < 200; i++ {
			var pos [3]float64
			for d := 0; d < c.ge.Dims(); d++ {
				// Cells b[d][0] .. b[d][1]−2 have both points owned.
				pos[d] = (float64(b[d][0]) + rng.Float64()*float64(b[d][1]-1-b[d][0])) * c.d[d]
			}
			if c.ge.Dims() == 3 {
				s.Append3(pos[0], pos[1], pos[2], 0.1, 0.2, 0.3, float64(i))
			} else {
				s.Append(pos[0], pos[1], 0.1, 0.2, 0.3, float64(i))
			}
		}
		f := c.ge.NewFields(r, nil)
		var gv []float64
		// A nil table: any ghost-path vertex would dereference it.
		if ops := c.ge.Deposit(s, 0, s.Len(), f, nil, &gv); ops != 0 || len(gv) != 0 {
			t.Errorf("%s: interior store made %d ghost contributions", c.name, ops)
		}
		c.ge.GatherPush(s, 0, s.Len(), f, nil, nil, testDt)
		if got, want := f.SumRho(), 200.0; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: deposited charge %g, want %g", c.name, got, want)
		}
	}
}

// TestRangeKernelsAllocateNothing: once the ghost values have grown, a
// scatter, a gather/push, a move and a cost observation allocate nothing,
// called through the interface as the pipeline calls them.
func TestRangeKernelsAllocateNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	for _, c := range []kernelCase{case2(t, mesh.NewGrid(48, 20), 4), case3(t, mesh3.NewGrid(12, 10, 6), 4)} {
		rng := rand.New(rand.NewSource(5))
		s := saltedStore(c, rng)
		f, _ := randomFieldsPair(c.ge, 1, rng)
		table := commopt.NewDirectTable(c.ge.NumPoints())
		var gv []float64
		c.ge.Deposit(s, 0, s.Len(), f, table, &gv)
		ghostEB := make([]float64, 6*table.Len())
		led := machine.NewCostLedger(c.ge.NumCells(), machine.DefaultLedgerDecay)
		allocs := testing.AllocsPerRun(10, func() {
			table.Reset()
			gv = gv[:0]
			c.ge.Deposit(s, 0, s.Len(), f, table, &gv)
			c.ge.GatherPush(s, 0, s.Len(), f, table, ghostEB, testDt)
			c.ge.MoveRange(s, 0, s.Len(), testDt)
			c.ge.ObserveCosts(s, 0, s.Len(), f, led, 40, 7)
			led.Commit(1)
		})
		if allocs != 0 {
			t.Errorf("%s: one warm step allocates %v times, want 0", c.name, allocs)
		}
	}
}
