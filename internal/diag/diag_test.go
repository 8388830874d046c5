package diag

import (
	"strings"
	"testing"

	"picpar/internal/mesh"
	"picpar/internal/particle"
)

func TestDensityMapShape(t *testing.T) {
	g := mesh.NewGrid(16, 16)
	s := particle.NewStore(4, -1, 1)
	// Cluster in the lower-left corner.
	for i := 0; i < 4; i++ {
		s.Append(1, 1, 0, 0, 0, float64(i))
	}
	var sb strings.Builder
	DensityMap(&sb, g, s, 8, 4)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines %d, want 4", len(lines))
	}
	for _, l := range lines {
		if len([]rune(l)) != 8 {
			t.Fatalf("line width %d, want 8", len([]rune(l)))
		}
	}
	// Bottom row (printed last) has the dense glyph; top row is empty.
	if lines[3][0] == ' ' {
		t.Error("lower-left bin should be shaded")
	}
	if strings.TrimSpace(lines[0]) != "" {
		t.Error("top row should be empty")
	}
}

func TestDensityMapEmpty(t *testing.T) {
	var sb strings.Builder
	DensityMap(&sb, mesh.NewGrid(4, 4), particle.NewStore(0, -1, 1), 4, 2)
	for _, r := range sb.String() {
		if r != ' ' && r != '\n' {
			t.Fatalf("unexpected glyph %q for empty store", r)
		}
	}
	DensityMap(&sb, mesh.NewGrid(4, 4), particle.NewStore(0, -1, 1), 0, 0) // no panic
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("length %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("extremes wrong: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty series should give empty string")
	}
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat series should render lowest glyph: %q", flat)
		}
	}
}

func TestDownsample(t *testing.T) {
	in := []float64{1, 1, 3, 3, 5, 5}
	out := Downsample(in, 3)
	want := []float64{1, 3, 5}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Downsample = %v", out)
		}
	}
	if got := Downsample(in, 10); len(got) != 6 {
		t.Error("no-op downsample changed length")
	}
}
