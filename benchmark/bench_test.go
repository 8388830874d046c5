package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"picpar/internal/comm"
	"picpar/internal/jobspec"
)

// TestQuickEveryWorkload drives the whole command in -quick mode: every
// workload untraced and traced, every declared metric present and finite,
// every operation correct.
func TestQuickEveryWorkload(t *testing.T) {
	for _, w := range workloads(11, true) {
		for _, trace := range []bool{false, true} {
			out, err := run(options{workload: w.name, seed: 11, trace: trace, quick: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, out.Correct, out.Attempted, out.Failed)
			}
			units := endToEndUnits
			if trace {
				units = perLayerUnits
			}
			if len(out.Metrics) != len(units) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(out.Metrics), len(units))
			}
			for name, unit := range units {
				got, ok := out.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.name, name)
				case got.Unit != unit:
					t.Errorf("%s: %s has unit %q, want %q", w.name, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.name, name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, got.Value)
				}
			}
			if trace {
				checkLayerShape(t, w, out.Metrics)
			}
		}
	}
}

// checkLayerShape pins what the traced pass must show for the workloads to
// mean what BENCHMARK.json says they mean.
func checkLayerShape(t *testing.T, w workload, m map[string]metric) {
	t.Helper()
	redist := m["pic.redistributions"].Value
	switch w.name {
	case "steady2d", "tcp3d":
		if redist != 0 || m["pic.redistribute_ms_per_iter"].Value != 0 {
			t.Errorf("%s: %v redistributions, %v ms per iteration; the static policy must never fire",
				w.name, redist, m["pic.redistribute_ms_per_iter"].Value)
		}
	default:
		if redist == 0 || m["pic.redistribute_ms_per_iter"].Value <= 0 {
			t.Errorf("%s: redistribution never fired", w.name)
		}
	}
	if m["serve.jobs_per_s"].Value <= 0 || m["serve.rejected"].Value != 0 {
		t.Errorf("%s: %v served jobs per second, %v rejected", w.name, m["serve.jobs_per_s"].Value, m["serve.rejected"].Value)
	}
}

// TestSpanDecorator checks the tracer against a run it decorates together
// with comm.Tracer: phase spans partition each rank's timeline, every leaf
// lies inside its phase, time inside Recv never exceeds the phase around
// it, and the Send leaves count the same messages and bytes as comm.Tracer.
func TestSpanDecorator(t *testing.T) {
	spec := jobspec.Spec{Mesh: "32x16", Particles: 4096, Ranks: ranks, Iterations: 6,
		Distribution: "irregular", Policy: "periodic:2", Seed: 3, Workers: 1}
	tr := newTracer()
	counts := comm.NewTracer()
	run, err := runSim(spec, false, func(tp comm.Transport) comm.Transport { return tr.wrap(counts.Wrap(tp)) })
	if err != nil {
		t.Fatal(err)
	}
	traced := newTracedRun("test", tr, run)
	if len(tr.ranks) != ranks {
		t.Fatalf("%d rank timelines, want %d", len(tr.ranks), ranks)
	}
	var msgs, bytes int64
	for _, rt := range tr.ranks {
		for i, ph := range rt.phases {
			if ph.end < ph.start {
				t.Fatalf("rank %d phase %d ends before it starts", rt.rank, i)
			}
			if i > 0 && rt.phases[i-1].end != ph.start {
				t.Fatalf("rank %d: gap between phase %d and %d", rt.rank, i-1, i)
			}
		}
		if last := rt.phases[len(rt.phases)-1]; last.end != traced.end {
			t.Errorf("rank %d: timeline ends at %v, run at %v", rt.rank, last.end, traced.end)
		}
		recvIn := make([]int64, len(rt.phases))
		for _, lf := range rt.leaves {
			ph := rt.phases[lf.phase]
			if lf.start < ph.start || lf.end > ph.end || lf.end < lf.start {
				t.Fatalf("rank %d: %s leaf [%v, %v] outside its phase [%v, %v]",
					rt.rank, leafNames[lf.kind], lf.start, lf.end, ph.start, ph.end)
			}
			switch {
			case lf.kind == leafRecv:
				recvIn[lf.phase] += int64(lf.end - lf.start)
			case lf.kind == leafSend && int(lf.peer) != rt.rank: // comm.Tracer skips self-sends too
				msgs++
				bytes += int64(lf.bytes)
			}
		}
		for i, ph := range rt.phases {
			if recvIn[i] > int64(ph.end-ph.start) {
				t.Errorf("rank %d phase %d: %d ns in Recv, phase lasted %d ns", rt.rank, i, recvIn[i], ph.end-ph.start)
			}
		}
	}
	if want := counts.Total(); msgs != want.MsgsSent || bytes != want.BytesSent {
		t.Errorf("Send leaves: %d messages %d bytes; comm.Tracer: %d messages %d bytes",
			msgs, bytes, want.MsgsSent, want.BytesSent)
	}
	b := traced.breakdown()
	if b.self[0] <= 0 {
		t.Errorf("scatter self time %v ms per iteration, want > 0", b.self[0])
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the command in step: the
// same workloads, the same metrics, the same units.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var manifest struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	ws := workloads(11, false)
	if len(manifest.Workloads) != len(ws) {
		t.Errorf("manifest lists %d workloads, the command has %d", len(manifest.Workloads), len(ws))
	}
	for _, e := range manifest.Workloads {
		if _, err := findWorkload(ws, e.Name); err != nil {
			t.Error(err)
		}
	}
	for what, pair := range map[string]struct {
		listed []entry
		units  map[string]string
	}{"end_to_end": {manifest.EndToEnd, endToEndUnits}, "per_layer": {manifest.PerLayer, perLayerUnits}} {
		if len(pair.listed) != len(pair.units) {
			t.Errorf("%s: manifest lists %d metrics, the command reports %d", what, len(pair.listed), len(pair.units))
		}
		for _, e := range pair.listed {
			if unit, ok := pair.units[e.Name]; !ok || unit != e.Unit {
				t.Errorf("%s: manifest has %s in %q, the command %q (reported: %v)", what, e.Name, e.Unit, unit, ok)
			}
		}
	}
}
