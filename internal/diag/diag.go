// Package diag renders text-mode diagnostics of simulation state: particle
// density maps and time-series sparklines. The examples use it to make the
// alignment machinery visible; it has no effect on simulated time.
package diag

import (
	"fmt"
	"io"
	"math"
	"strings"

	"picpar/internal/mesh"
	"picpar/internal/particle"
)

// shades maps relative density to glyphs, light to dark.
var shades = []rune(" .:-=+*#%@")

// DensityMap renders an ASCII density plot of the particles on a character
// grid of width×height cells (each character bins a region of the domain).
func DensityMap(w io.Writer, g mesh.Grid, s *particle.Store, width, height int) {
	if width <= 0 || height <= 0 {
		return
	}
	bins := make([]int, width*height)
	max := 0
	for i := 0; i < s.Len(); i++ {
		bx := int(s.X[i] / g.Lx * float64(width))
		by := int(s.Y[i] / g.Ly * float64(height))
		if bx >= width {
			bx = width - 1
		}
		if by >= height {
			by = height - 1
		}
		bins[by*width+bx]++
		if bins[by*width+bx] > max {
			max = bins[by*width+bx]
		}
	}
	for y := height - 1; y >= 0; y-- {
		var b strings.Builder
		for x := 0; x < width; x++ {
			b.WriteRune(shade(bins[y*width+x], max))
		}
		fmt.Fprintln(w, b.String())
	}
}

func shade(v, max int) rune {
	if max == 0 || v == 0 {
		return shades[0]
	}
	idx := 1 + int(float64(float64(v)/float64(max)*float64(len(shades)-2))+0.5)
	if idx >= len(shades) {
		idx = len(shades) - 1
	}
	return shades[idx]
}

// sparkGlyphs are eight vertical bar heights.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a compact one-line plot of a series.
func Sparkline(series []float64) string {
	if len(series) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range series {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range series {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkGlyphs) {
			idx = len(sparkGlyphs) - 1
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	return b.String()
}

// Downsample reduces a series to at most n points by block averaging,
// keeping sparklines terminal-width friendly.
func Downsample(series []float64, n int) []float64 {
	if n <= 0 || len(series) <= n {
		return series
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i * len(series) / n
		hi := (i + 1) * len(series) / n
		sum := 0.0
		for j := lo; j < hi; j++ {
			sum += series[j]
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}
