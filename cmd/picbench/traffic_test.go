package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
