package comm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"picpar/internal/machine"
)

// newTestWorld is the standard world constructor for this package's tests:
// the deadlock watchdog is armed so a stuck protocol fails with a
// diagnostic naming the blocked ranks and tags instead of hanging the test
// binary until the go test timeout. (This package cannot import commtest —
// it would be an import cycle — so it arms the watchdog directly through
// the same EnvWatchdog knob.)
func newTestWorld(p int, params machine.Params) *World {
	w := NewWorld(p, params)
	w.SetWatchdog(EnvWatchdog(10 * time.Second))
	return w
}

// expectWatchdogPanic runs fn and asserts it panics with a watchdog
// diagnostic containing every fragment. The panic surfaces as a *RankPanic
// wrapping the diagnostic string.
func expectWatchdogPanic(t *testing.T, fragments []string, fn func()) {
	t.Helper()
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("expected a watchdog panic, got none")
		}
		rp, ok := e.(*RankPanic)
		if !ok {
			t.Fatalf("panic value %T (%v), want *RankPanic", e, e)
		}
		msg, ok := rp.Value.(string)
		if !ok {
			t.Fatalf("rank panic value %T (%v), want string diagnostic", rp.Value, rp.Value)
		}
		if !strings.Contains(msg, "deadlock watchdog") {
			t.Fatalf("panic is not a watchdog diagnostic: %q", msg)
		}
		for _, frag := range fragments {
			if !strings.Contains(msg, frag) {
				t.Errorf("diagnostic %q missing %q", msg, frag)
			}
		}
	}()
	fn()
}

// TestWatchdogRecvDeadlock: two ranks each waiting to receive from the
// other with no sends in flight — the classic protocol deadlock. The
// watchdog must name who is blocked and on which tag.
func TestWatchdogRecvDeadlock(t *testing.T) {
	w := NewWorld(2, machine.Zero())
	w.SetWatchdog(100 * time.Millisecond)
	expectWatchdogPanic(t, []string{"blocked receiving tag 7"}, func() {
		w.Run(func(r Transport) {
			r.Recv(1-r.Rank(), TagUser+7)
		})
	})
}

// TestWatchdogSendDeadlock: a sender pushing past DefaultMailboxDepth with
// no receiver must trip the watchdog with a mailbox-full diagnostic, not
// block forever.
func TestWatchdogSendDeadlock(t *testing.T) {
	w := NewWorld(2, machine.Zero())
	w.SetWatchdog(100 * time.Millisecond)
	expectWatchdogPanic(t,
		[]string{"rank 0 blocked sending tag 3 to rank 1", "mailbox full"},
		func() {
			w.Run(func(r Transport) {
				if r.Rank() != 0 {
					// Rank 1 exits without ever receiving, so rank 0's
					// mailbox to it fills and stays full.
					return
				}
				for i := 0; i <= DefaultMailboxDepth; i++ {
					r.Send(1, TagUser+3, nil, 0)
				}
			})
		})
}

// TestWatchdogReportsAllBlockedRanks: the diagnostic of the tripping rank
// lists what the other blocked ranks were stuck on.
func TestWatchdogReportsAllBlockedRanks(t *testing.T) {
	w := NewWorld(3, machine.Zero())
	w.SetWatchdog(100 * time.Millisecond)
	expectWatchdogPanic(t, []string{"blocked receiving"}, func() {
		w.Run(func(r Transport) {
			// Every rank waits on its left neighbour; nobody ever sends.
			src := (r.Rank() + 2) % 3
			r.Recv(src, TagUser+1)
		})
	})
}

// TestEnvWatchdogParsing: every shape of PICPAR_WATCHDOG resolves as
// documented, and malformed values are rejected loudly — a warning naming
// the bad value, then the fallback — never a silent fallback.
func TestEnvWatchdogParsing(t *testing.T) {
	const fallback = 10 * time.Second
	cases := []struct {
		env  string
		want time.Duration
		warn bool
	}{
		{"", fallback, false},
		{"0", 0, false},
		{"off", 0, false},
		{"30s", 30 * time.Second, false},
		{"1m30s", 90 * time.Second, false},
		{"bogus", fallback, true},
		{"12", fallback, true},    // missing unit — ParseDuration rejects it
		{"-5s", fallback, true},   // negative: use "0"/"off" to disable
		{"5 sec", fallback, true}, // spaces and spelled-out units
		{"\t10s", fallback, true}, // leading whitespace is not trimmed
	}
	origWarnf := warnf
	defer func() { warnf = origWarnf }()
	for _, tc := range cases {
		var warnings []string
		warnf = func(format string, args ...any) {
			warnings = append(warnings, fmt.Sprintf(format, args...))
		}
		t.Setenv("PICPAR_WATCHDOG", tc.env)
		got := EnvWatchdog(fallback)
		if got != tc.want {
			t.Errorf("PICPAR_WATCHDOG=%q: got %v, want %v", tc.env, got, tc.want)
		}
		if tc.warn && len(warnings) == 0 {
			t.Errorf("PICPAR_WATCHDOG=%q: malformed value accepted silently", tc.env)
		}
		if !tc.warn && len(warnings) != 0 {
			t.Errorf("PICPAR_WATCHDOG=%q: unexpected warning %q", tc.env, warnings[0])
		}
		for _, w := range warnings {
			if !strings.Contains(w, fmt.Sprintf("%q", tc.env)) || !strings.Contains(w, "PICPAR_WATCHDOG") {
				t.Errorf("warning %q does not name the variable and bad value", w)
			}
		}
	}
}

// TestWatchdogDisabledByDefault: an unarmed world behaves exactly as
// before — here just a sanity check that normal traffic is unaffected and
// no watchdog machinery engages on the happy path.
func TestWatchdogHappyPathUnaffected(t *testing.T) {
	w := newTestWorld(4, machine.Zero())
	w.Run(func(r Transport) {
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		r.Send(next, TagUser, r.Rank(), IntBytes)
		body, _ := r.Recv(prev, TagUser)
		if body.(int) != prev {
			t.Errorf("rank %d: got %v from %d", r.Rank(), body, prev)
		}
		Barrier(r)
	})
}

// TestWatchdogTimerRearms arms a rank's one timer, lets it fire outside any
// wait and arms it again: the late tick must not reach the new wait, where
// it would report a false deadlock at once. A timer rearmed before it fired
// must still fire at its new deadline.
func TestWatchdogTimerRearms(t *testing.T) {
	var c core
	c.arm(time.Millisecond)
	time.Sleep(20 * time.Millisecond) // fires with nobody waiting
	select {
	case <-c.arm(time.Hour):
		t.Fatal("a tick from the previous arm reached the new wait")
	case <-time.After(50 * time.Millisecond):
	}
	select {
	case <-c.arm(10 * time.Millisecond):
	case <-time.After(10 * time.Second):
		t.Fatal("a timer rearmed before its deadline never fired")
	}
	if d := c.arm(0); d != nil {
		t.Error("a disarmed watchdog returned a channel")
	}
}
