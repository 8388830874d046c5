package par

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"picpar/internal/raceflag"
)

// markTask records which worker processed each index, and counts calls.
type markTask struct {
	owner []int32
	calls atomic.Int64
}

func (t *markTask) Work(w, lo, hi int) {
	t.calls.Add(1)
	for i := lo; i < hi; i++ {
		t.owner[i] = int32(w + 1)
	}
}

// TestSplitCoversExactly: for a spread of (n, workers), the shares are
// ascending, disjoint, and cover [0, n) exactly — the contract the ordered
// reductions depend on.
func TestSplitCoversExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 100, 1023} {
			prev := 0
			for w := 0; w < workers; w++ {
				lo, hi := Split(n, workers, w)
				if lo != prev {
					t.Fatalf("n=%d W=%d w=%d: lo %d, want %d (gap or overlap)", n, workers, w, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d W=%d w=%d: hi %d < lo %d", n, workers, w, hi, lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d W=%d: shares cover %d, want %d", n, workers, prev, n)
			}
		}
	}
}

// TestRunProcessesEveryIndexOnce: every index is touched by exactly the
// worker Split assigns it, for pools larger and smaller than the input.
func TestRunProcessesEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		n := 103
		task := &markTask{owner: make([]int32, n)}
		p.Run(n, task)
		for i, got := range task.owner {
			want := int32(0)
			for w := 0; w < workers; w++ {
				if lo, hi := Split(n, workers, w); i >= lo && i < hi {
					want = int32(w + 1)
				}
			}
			if got != want {
				t.Errorf("W=%d: index %d processed by worker %d, want %d", workers, i, got-1, want-1)
			}
		}
		p.Close()
	}
}

// TestRunEmptyAndReuse: n=0 is a no-op, and a pool survives many Runs.
func TestRunEmptyAndReuse(t *testing.T) {
	p := New(4)
	defer p.Close()
	task := &markTask{owner: make([]int32, 64)}
	p.Run(0, task)
	for r := 0; r < 50; r++ {
		for i := range task.owner {
			task.owner[i] = 0
		}
		p.Run(len(task.owner), task)
		for i, v := range task.owner {
			if v == 0 {
				t.Fatalf("run %d: index %d unprocessed", r, i)
			}
		}
	}
}

// panicTask panics on one specific index.
type panicTask struct{ at, n int }

func (t *panicTask) Work(w, lo, hi int) {
	for i := lo; i < hi; i++ {
		if i == t.at {
			panic(fmt.Sprintf("boom at %d", i))
		}
	}
}

// TestRunPropagatesWorkerPanics: a panic in any worker's share surfaces on
// the caller with the original value, and the pool remains usable.
func TestRunPropagatesWorkerPanics(t *testing.T) {
	p := New(3)
	defer p.Close()
	n := 90
	for _, at := range []int{0, 45, 89} { // shares of workers 0, 1, 2
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("panic at index %d did not propagate", at)
				}
				want := fmt.Sprintf("boom at %d", at)
				if v != want {
					t.Fatalf("panic value %v, want %q", v, want)
				}
			}()
			p.Run(n, &panicTask{at: at, n: n})
		}()
		// The pool must still work after the panic round-trip.
		task := &markTask{owner: make([]int32, n)}
		p.Run(n, task)
		for i, v := range task.owner {
			if v == 0 {
				t.Fatalf("after panic at %d: index %d unprocessed", at, i)
			}
		}
	}
}

// TestRunSteadyStateAllocs: a warm pool Run allocates nothing — the
// pre-spawned workers and stored task make the per-iteration kernel calls
// allocation-free.
func TestRunSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector distorts allocation counts")
	}
	p := New(4)
	defer p.Close()
	task := &markTask{owner: make([]int32, 4096)}
	p.Run(len(task.owner), task) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		p.Run(len(task.owner), task)
	})
	if allocs != 0 {
		t.Errorf("steady-state Run: %v allocs/op, want 0", allocs)
	}
}

// TestNewClampsAndCloseIdempotent: sizes below 1 clamp to 1, and Close can
// be called twice.
func TestNewClampsAndCloseIdempotent(t *testing.T) {
	p := New(0)
	if p.Workers() != 1 {
		t.Errorf("New(0).Workers() = %d, want 1", p.Workers())
	}
	task := &markTask{owner: make([]int32, 8)}
	p.Run(8, task)
	p.Close()
	p.Close()
}

// TestNilPoolIsOneWorker: the nil *Pool is the sequential path — Workers
// reports 1, Run hands the whole range to worker 0 inline, Close is a no-op,
// and none of them allocate.
func TestNilPoolIsOneWorker(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", p.Workers())
	}
	task := &markTask{owner: make([]int32, 37)}
	p.Run(len(task.owner), task)
	if task.calls.Load() != 1 {
		t.Errorf("nil pool Run made %d Work calls, want 1 inline call", task.calls.Load())
	}
	for i, w := range task.owner {
		if w != 1 {
			t.Fatalf("index %d processed by worker %d, want 0", i, w-1)
		}
	}
	p.Close()
	p.Run(len(task.owner), task) // Close on nil closes nothing
	if raceflag.Enabled {
		return // race detector distorts allocation counts
	}
	allocs := testing.AllocsPerRun(20, func() {
		_ = p.Workers()
		p.Run(len(task.owner), task)
		p.Close()
	})
	if allocs != 0 {
		t.Errorf("nil pool Workers/Run/Close: %v allocs/op, want 0", allocs)
	}
}

// TestEnvProcs: well-formed values are honoured; unset, malformed, zero and
// negative values fall back loudly (the EnvWatchdog precedent).
func TestEnvProcs(t *testing.T) {
	origWarnf := warnf
	defer func() { warnf = origWarnf }()
	var warnings []string
	warnf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	orig, had := os.LookupEnv(EnvVar)
	defer func() {
		if had {
			os.Setenv(EnvVar, orig)
		} else {
			os.Unsetenv(EnvVar)
		}
	}()

	cases := []struct {
		val  string // "" means unset
		want int
		warn bool
	}{
		{"", 1, false},
		{"1", 1, false},
		{"4", 4, false},
		{"16", 16, false},
		{"banana", 1, true},
		{"2.5", 1, true},
		{"-3", 1, true},
		{"0", 1, true},
	}
	for _, c := range cases {
		if c.val == "" {
			os.Unsetenv(EnvVar)
		} else {
			os.Setenv(EnvVar, c.val)
		}
		warnings = warnings[:0]
		got := EnvProcs(1)
		if got != c.want {
			t.Errorf("EnvProcs with %s=%q: got %d, want %d", EnvVar, c.val, got, c.want)
		}
		if c.warn && len(warnings) == 0 {
			t.Errorf("%s=%q: expected a loud warning, got none", EnvVar, c.val)
		}
		if !c.warn && len(warnings) > 0 {
			t.Errorf("%s=%q: unexpected warning %q", EnvVar, c.val, warnings[0])
		}
	}

	// The fallback itself passes through untouched.
	os.Unsetenv(EnvVar)
	if got := EnvProcs(3); got != 3 {
		t.Errorf("EnvProcs(3) with unset env: got %d, want 3", got)
	}
}
