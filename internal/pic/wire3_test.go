package pic

import (
	"testing"

	"picpar/internal/geom"
	"picpar/internal/mesh3"
	"picpar/internal/particle"
	"picpar/internal/sfc"
	"picpar/internal/wire"
)

func testGeom3(t *testing.T, p int) *geom.G3 {
	t.Helper()
	g := mesh3.NewGrid(16, 16, 16)
	d, err := mesh3.NewDistOrdered(g, p, sfc.SchemeHilbert)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sfc.New3(sfc.SchemeHilbert, g.Nx, g.Ny, g.Nz)
	if err != nil {
		t.Fatal(err)
	}
	return geom.New3(g, d, ix)
}

// TestWire3DParticleRoundTrip: a 3-D store marshalled through a pooled
// wire buffer and appended back is bit-identical, including the z axis and
// the 8-float stride.
func TestWire3DParticleRoundTrip(t *testing.T) {
	s, err := particle.Generate(particle.Config{
		N: 257, Lx: 16, Ly: 16, Lz: 16, Distribution: particle.DistIrregular, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		s.Key[i] = float64(i * 3)
	}
	if s.WireFloats() != 8 {
		t.Fatalf("3-D wire stride %d, want 8", s.WireFloats())
	}

	buf := s.MarshalRange(wire.Get(s.Len()*s.WireFloats()), 0, s.Len())
	if len(buf) != s.Len()*8 {
		t.Fatalf("marshalled %d floats, want %d", len(buf), s.Len()*8)
	}
	out := s.NewLike(s.Len())
	if err := out.AppendWire(buf); err != nil {
		t.Fatal(err)
	}
	wire.Put(buf)

	if out.Len() != s.Len() {
		t.Fatalf("round trip length %d, want %d", out.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if out.X[i] != s.X[i] || out.Y[i] != s.Y[i] || out.Z[i] != s.Z[i] ||
			out.Px[i] != s.Px[i] || out.Py[i] != s.Py[i] || out.Pz[i] != s.Pz[i] ||
			out.ID[i] != s.ID[i] || out.Key[i] != s.Key[i] {
			t.Fatalf("particle %d changed across the wire", i)
		}
	}
}

// TestWire3DScatterLayoutRoundTrip drives the scatter ghost payload —
// scatterWireFloats records of (gid, Jx, Jy, Jz, Rho) — through a pooled
// buffer for every ghost point of a real 3-D footprint set, and checks the
// decoded gids resolve to owned slots on the destination rank.
func TestWire3DScatterLayoutRoundTrip(t *testing.T) {
	ge := testGeom3(t, 8)
	s, err := ge.Generate(geom.GenConfig{N: 512, Distribution: particle.DistUniform, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Collect per-owner ghost contributions exactly as scatterPhase lays
	// them out on the wire.
	type contrib struct {
		gid            int
		jx, jy, jz, rh float64
	}
	perOwner := map[int][]contrib{}
	var fp geom.Footprint
	for i := 0; i < s.Len(); i++ {
		ge.Footprint(s, i, &fp)
		if fp.N != 8 {
			t.Fatalf("3-D footprint has %d vertices, want 8", fp.N)
		}
		for k := 0; k < fp.N; k++ {
			gid := int(fp.Gid[k])
			o := ge.OwnerOfPoint(gid)
			perOwner[o] = append(perOwner[o], contrib{
				gid: gid, jx: float64(i), jy: float64(k), jz: 0.25, rh: fp.W[k],
			})
		}
	}
	if len(perOwner) < 2 {
		t.Fatal("footprints touched fewer than 2 owners — nothing crosses the wire")
	}

	for owner, cs := range perOwner {
		buf := wire.Get(len(cs) * scatterWireFloats)
		for _, c := range cs {
			buf = append(buf, float64(c.gid), c.jx, c.jy, c.jz, c.rh)
		}
		if len(buf) != len(cs)*scatterWireFloats {
			t.Fatalf("owner %d: payload %d floats, want %d", owner, len(buf), len(cs)*scatterWireFloats)
		}

		// Decode on the destination: every gid must map to an owned slot of
		// that rank's field substrate.
		fields := ge.NewFields(owner, nil)
		for o := 0; o < len(buf); o += scatterWireFloats {
			c := fields.Slot(int(buf[o]))
			if c < 0 {
				t.Fatalf("owner %d: wire gid %d not owned by destination", owner, int(buf[o]))
			}
			fields.Arrays().Jx[c] += buf[o+1]
			fields.Arrays().Jy[c] += buf[o+2]
			fields.Arrays().Jz[c] += buf[o+3]
			fields.Arrays().Rho[c] += buf[o+4]
		}

		// The deposited charge must match what was sent (different
		// accumulation order, so compare to rounding error).
		sent := 0.0
		for _, c := range cs {
			sent += c.rh
		}
		if got := fields.SumRho(); got < sent*(1-1e-12) || got > sent*(1+1e-12) {
			t.Errorf("owner %d: deposited Rho %g, sent %g", owner, got, sent)
		}
		wire.Put(buf)
	}
}

// TestWire3DGatherLayoutRoundTrip drives the gather reply payload —
// gatherWireFloats records of (Ex, Ey, Ez, Bx, By, Bz) — through a pooled
// buffer in the recvGids order the protocol uses, and checks the values
// land on the requesting side unchanged.
func TestWire3DGatherLayoutRoundTrip(t *testing.T) {
	ge := testGeom3(t, 8)
	fields := ge.NewFields(3, nil)
	fa := fields.Arrays()

	// Give every owned point a distinctive field value keyed by gid.
	var gids []float64
	for gid := 0; gid < ge.NumPoints(); gid++ {
		if c := fields.Slot(gid); c >= 0 {
			fa.Ex[c] = float64(gid)
			fa.Ey[c] = float64(gid) + 0.125
			fa.Ez[c] = float64(gid) + 0.25
			fa.Bx[c] = -float64(gid)
			fa.By[c] = 0.5
			fa.Bz[c] = float64(gid) * 2
			gids = append(gids, float64(gid))
		}
	}

	// Owner side: build the reply exactly as gatherAndPushPhase does.
	buf := wire.Get(len(gids) * gatherWireFloats)
	for _, fgid := range gids {
		c := fields.Slot(int(fgid))
		buf = append(buf, fa.Ex[c], fa.Ey[c], fa.Ez[c], fa.Bx[c], fa.By[c], fa.Bz[c])
	}
	if len(buf) != len(gids)*gatherWireFloats {
		t.Fatalf("reply payload %d floats, want %d", len(buf), len(gids)*gatherWireFloats)
	}

	// Requester side: slot o of the reply corresponds to slot o of the
	// request order.
	for o, fgid := range gids {
		b := buf[o*gatherWireFloats:]
		if b[0] != fgid || b[1] != fgid+0.125 || b[2] != fgid+0.25 ||
			b[3] != -fgid || b[4] != 0.5 || b[5] != fgid*2 {
			t.Fatalf("gather reply slot %d corrupted: %v", o, b[:gatherWireFloats])
		}
	}
	wire.Put(buf)
}
