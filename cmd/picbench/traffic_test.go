package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestTrafficGateFailureLeavesNoBaseline: a run that fails on inflated
// traffic must not write its numbers as the next baseline, so running the
// same gate again fails again. The baseline is the committed one with one
// phase's bytes_sent lowered by a single byte.
func TestTrafficGateFailureLeavesNoBaseline(t *testing.T) {
	committed, committedPath, err := latestTrafficSnapshot(filepath.Join("..", "..", "bench"))
	if err != nil {
		t.Fatal(err)
	}
	if committed == nil {
		t.Fatal("no committed TRAFFIC_*.json baseline in bench/")
	}
	shrunk := false
	for i := range committed.Phases {
		if committed.Phases[i].BytesSent > 0 {
			committed.Phases[i].BytesSent--
			shrunk = true
			break
		}
	}
	if !shrunk {
		t.Fatal("committed baseline records no bytes in any phase")
	}
	dir := t.TempDir()
	data, err := json.MarshalIndent(committed, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(committedPath)), data, 0o644); err != nil {
		t.Fatal(err)
	}

	for run := 1; run <= 2; run++ {
		err := runTraffic(dir, true)
		if err == nil {
			t.Fatalf("run %d passed against a baseline one byte below the real traffic", run)
		}
		if !strings.Contains(err.Error(), "bytes_sent grew") {
			t.Fatalf("run %d failed for the wrong reason: %v", run, err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "TRAFFIC_*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 1 {
			t.Fatalf("run %d left %d snapshots, want only the seeded baseline: %v", run, len(files), files)
		}
	}
}

// TestTrafficGateReportsDroppedCells: a baseline topology cell the current
// run no longer measures passes the gate but is printed, so deleting a
// topology shows in the gate's output instead of vanishing silently.
func TestTrafficGateReportsDroppedCells(t *testing.T) {
	cur, path, err := latestTrafficSnapshot(filepath.Join("..", "..", "bench"))
	if err != nil {
		t.Fatal(err)
	}
	if cur == nil {
		t.Fatal("no committed TRAFFIC_*.json baseline in bench/")
	}
	prev := *cur
	prev.Topologies = append(slices.Clone(cur.Topologies),
		trafficTopologyEntry{Topology: "retired", P: 8, Links: 24, Sockets: 24, MsgsSent: 4364})

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = compareTraffic(&prev, cur, path)
	os.Stdout = stdout
	w.Close()
	out, rerr := io.ReadAll(r)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatalf("dropping a cell failed the gate: %v", err)
	}
	if want := "topology retired P=8 dropped (baseline: 24 sockets, 4364 msgs)"; !strings.Contains(string(out), want) {
		t.Fatalf("gate output does not report the dropped cell %q:\n%s", want, out)
	}
	if n := strings.Count(string(out), "dropped"); n != 1 {
		t.Fatalf("gate reported %d dropped cells, want 1:\n%s", n, out)
	}
}
