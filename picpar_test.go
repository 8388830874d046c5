package picpar_test

import (
	"testing"

	"picpar"
)

func TestPublicAPIQuickRun(t *testing.T) {
	res, err := picpar.Run(picpar.Config{
		Grid:         picpar.NewGrid(32, 16),
		P:            4,
		NumParticles: 1024,
		Distribution: picpar.DistIrregular,
		Seed:         1,
		Iterations:   20,
		Policy:       picpar.DynamicPolicy(),
		Verify:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || len(res.Records) != 20 {
		t.Fatalf("unexpected result: total=%g records=%d", res.TotalTime, len(res.Records))
	}
	if res.FinalParticleCount != 1024 {
		t.Errorf("final particles %d", res.FinalParticleCount)
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	for _, f := range []picpar.PolicyFactory{
		picpar.StaticPolicy(), picpar.PeriodicPolicy(5), picpar.DynamicPolicy(),
	} {
		cfg := picpar.Config{
			Grid:         picpar.NewGrid(16, 16),
			P:            2,
			NumParticles: 256,
			Iterations:   6,
			Policy:       f,
		}
		if _, err := picpar.Run(cfg); err != nil {
			t.Errorf("%s: %v", f().Name(), err)
		}
	}
}

func TestPublicAPIIndexers(t *testing.T) {
	for _, scheme := range []string{picpar.IndexHilbert, picpar.IndexSnake, picpar.IndexRowMajor, picpar.IndexMorton} {
		ix, err := picpar.NewIndexer(scheme, 16, 8)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if ix.Name() != scheme {
			t.Errorf("name %q != %q", ix.Name(), scheme)
		}
		x, y, z := ix.Coords(ix.Index(5, 3, 0))
		if x != 5 || y != 3 || z != 0 {
			t.Errorf("%s: round trip failed", scheme)
		}
	}
}

func TestPublicAPIMachines(t *testing.T) {
	cm5 := picpar.CM5Machine()
	mod := picpar.ModernMachine()
	if cm5.Tau <= mod.Tau {
		t.Error("CM-5 startup should exceed a modern cluster's")
	}
}

// TestPublicAPIGridValues calls Grid's methods on the constructors' results
// directly: they take a value, so a non-addressable Grid has them too.
func TestPublicAPIGridValues(t *testing.T) {
	if err := picpar.NewGrid(8, 4).Validate(); err != nil {
		t.Fatal(err)
	}
	if d, n := picpar.NewGrid3(4, 4, 2).Dims(), picpar.NewGrid3(4, 4, 2).NumPoints(); d != 3 || n != 32 {
		t.Fatalf("NewGrid3(4, 4, 2): Dims %d, NumPoints %d", d, n)
	}
	if cx, cy, cz := picpar.NewGrid(8, 4).CellOf(-0.5, 4.5, 7); cx != 7 || cy != 0 || cz != 0 {
		t.Fatalf("NewGrid(8, 4).CellOf(-0.5, 4.5, 7) = %d, %d, %d", cx, cy, cz)
	}
}
