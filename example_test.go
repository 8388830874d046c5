package picpar_test

import (
	"fmt"

	"picpar"
)

// ExampleRun demonstrates the basic simulation loop: a small irregular
// plasma on four simulated processors with the dynamic (Stop-At-Rise)
// redistribution policy. Simulated times are deterministic, so the output
// is exact.
func ExampleRun() {
	res, err := picpar.Run(picpar.Config{
		Grid:         picpar.NewGrid(32, 16),
		P:            4,
		NumParticles: 2048,
		Distribution: picpar.DistIrregular,
		Seed:         7,
		Iterations:   10,
		Policy:       picpar.DynamicPolicy(),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("iterations: %d\n", len(res.Records))
	fmt.Printf("particles conserved: %v\n", res.FinalParticleCount == 2048)
	fmt.Printf("efficiency in (0,1]: %v\n", res.Efficiency > 0 && res.Efficiency <= 1)
	// Output:
	// iterations: 10
	// particles conserved: true
	// efficiency in (0,1]: true
}

// ExampleNewIndexer shows the Hilbert cell ordering the runtime keys
// particles by: consecutive indices are spatially adjacent cells.
func ExampleNewIndexer() {
	ix, err := picpar.NewIndexer(picpar.IndexHilbert, 4, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	for idx := 0; idx < 4; idx++ {
		x, y, _ := ix.Coords(idx)
		fmt.Printf("index %d -> cell (%d,%d)\n", idx, x, y)
	}
	// Output:
	// index 0 -> cell (0,0)
	// index 1 -> cell (1,0)
	// index 2 -> cell (1,1)
	// index 3 -> cell (0,1)
}

// ExamplePeriodicPolicy shows policy construction; each rank of a
// simulation gets its own instance from the factory. A decision carries
// both whether to redistribute and which layout strategy to rebuild into.
func ExamplePeriodicPolicy() {
	factory := picpar.PeriodicPolicy(25)
	p := factory()
	fmt.Println(p.Name())
	d := p.Decide(24, 1.0) // iteration 24 completes the 25th step
	fmt.Println(d.Redistribute, d.Strategy)
	fmt.Println(p.Decide(25, 1.0).Redistribute)
	// Output:
	// periodic(25)
	// true equal-count
	// false
}
