#!/bin/sh
# Multi-process network smoke: the acceptance gates for the TCP transport.
#
#  1. Golden gate — 4 OS processes over loopback TCP must reproduce the
#     2-D golden TotalTime 1.1831223 byte-identically to the in-process
#     goroutine backend; a second run assembles the neighbor-sparse
#     topology (sparse socket mesh, digest-pinned rendezvous) and must
#     reproduce the same golden. A third run, 8 processes on a 16³ mesh,
#     must reproduce the 3-D golden TotalTime 1.5221545 and fingerprint
#     327ee7497adb6f01 (the rank path builds its 3-D geometry once per
#     process and runs every attempt on it).
#  2. Crash gate — kill -9 one rank mid-run; the coordinator process must
#     exit nonzero with a typed delivery diagnostic within a bounded
#     window, never hang.
#  3. Recover gate — the same kill -9 under -recover with checkpointing:
#     the dead rank is respawned, the world rolls back to the latest
#     complete checkpoint epoch, and the run completes with the golden
#     TotalTime and a Fingerprint byte-identical to an undisturbed run.
set -eu
cd "$(dirname "$0")/.."

BIN="$(mktemp -d)/picsim"
trap 'rm -rf "$(dirname "$BIN")"' EXIT
go build -o "$BIN" ./cmd/picsim

echo "== net golden: 4 processes over loopback TCP =="
OUT="$("$BIN" -net 127.0.0.1:0 -verify \
	-mesh 32x16 -n 2048 -p 4 -iters 10 -dist irregular -seed 7 -policy static)"
echo "$OUT" | grep -q 'TotalTime 1\.1831223' || {
	echo "FAIL: net golden mismatch; output was:" >&2
	echo "$OUT" >&2
	exit 1
}
echo "golden TotalTime 1.1831223 reproduced over TCP"

echo "== net golden: 4 processes, neighbor-sparse topology =="
OUT="$("$BIN" -net 127.0.0.1:0 -verify -topology neighbor-sparse \
	-mesh 32x16 -n 2048 -p 4 -iters 10 -dist irregular -seed 7 -policy static)"
echo "$OUT" | grep -q 'TotalTime 1\.1831223' || {
	echo "FAIL: neighbor-sparse net golden mismatch; output was:" >&2
	echo "$OUT" >&2
	exit 1
}
echo "golden TotalTime 1.1831223 reproduced over sparse TCP assembly"

echo "== net golden: 8 processes, 3-D mesh =="
OUT="$("$BIN" -net 127.0.0.1:0 -verify -dim 3 \
	-mesh 16x16x16 -n 2048 -p 8 -iters 10 -dist irregular -seed 7 -policy static)"
echo "$OUT" | grep -q 'TotalTime 1\.5221545' && echo "$OUT" | grep -q 'Fingerprint 327ee7497adb6f01' || {
	echo "FAIL: 3-D net golden mismatch; output was:" >&2
	echo "$OUT" >&2
	exit 1
}
echo "3-D golden TotalTime 1.5221545 reproduced over TCP"

echo "== net crash: kill -9 one rank, expect typed failure =="
LOG="$(dirname "$BIN")/crash.log"
# Long enough that the kill lands mid-simulation on any machine.
"$BIN" -net 127.0.0.1:0 -mesh 128x64 -n 16384 -p 4 -iters 2000 \
	-dist irregular -seed 7 -policy static >"$LOG" 2>&1 &
COORD=$!

# The launcher prints "picsim: rank K pid N" to stderr as each rank starts.
VICTIM=""
i=0
while [ $i -lt 100 ]; do
	VICTIM="$(sed -n 's/^picsim: rank 2 pid \([0-9][0-9]*\)$/\1/p' "$LOG")"
	[ -n "$VICTIM" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$VICTIM" ]; then
	echo "FAIL: rank 2 pid never appeared in launcher output" >&2
	kill "$COORD" 2>/dev/null || true
	cat "$LOG" >&2
	exit 1
fi
sleep 0.5 # let the ranks get into the iteration loop
kill -9 "$VICTIM"
KILLED_AT=$(date +%s)

# The coordinator must exit on its own — nonzero — within the failure
# detection budget (peer EOF is near-instant; heartbeat timeout bounds the
# worst case at 10s; supervision grace adds 15s).
STATUS=0
wait "$COORD" || STATUS=$?
ELAPSED=$(($(date +%s) - KILLED_AT))
if [ "$STATUS" -eq 0 ]; then
	echo "FAIL: coordinator exited 0 after a rank was killed" >&2
	cat "$LOG" >&2
	exit 1
fi
if [ "$ELAPSED" -gt 30 ]; then
	echo "FAIL: coordinator took ${ELAPSED}s to notice the dead rank" >&2
	exit 1
fi
grep -q 'delivery failed' "$LOG" || {
	echo "FAIL: no typed delivery diagnostic in output:" >&2
	cat "$LOG" >&2
	exit 1
}
grep -q 'signal: killed' "$LOG" || {
	echo "FAIL: launch error does not attribute the killed rank:" >&2
	cat "$LOG" >&2
	exit 1
}
echo "killed rank diagnosed in ${ELAPSED}s with a typed DeliveryError"

echo "== net recover: kill -9 one rank under -recover, expect byte-identical finish =="
WORK="$(dirname "$BIN")"
# Reference: the golden configuration, undisturbed, with checkpointing and
# elastic recovery armed. Checkpoint writes are charge-free, so the golden
# TotalTime must not move.
REF="$("$BIN" -net 127.0.0.1:0 -verify \
	-mesh 32x16 -n 2048 -p 4 -iters 10 -dist irregular -seed 7 -policy static \
	-checkpoint-dir "$WORK/ck-ref" -checkpoint-every 3 -recover 2>"$WORK/ref.err")"
echo "$REF" | grep -q 'TotalTime 1\.1831223' || {
	echo "FAIL: golden moved with checkpointing+recover armed; output was:" >&2
	echo "$REF" >&2
	exit 1
}
REF_FP="$(echo "$REF" | sed -n 's/^  Fingerprint \(.*\)$/\1/p')"
[ -n "$REF_FP" ] || { echo "FAIL: no Fingerprint line in reference output" >&2; exit 1; }

# Chaos run: PICPAR_CRASH makes rank 2 SIGKILL itself at iteration 7 (a
# real kill -9 from the inside, deterministic on any machine; the marker
# file keeps the respawned replacement from re-crashing). The launcher must
# respawn it, roll the world back to epoch 6, and finish byte-identically.
RLOG="$WORK/recover.log"
STATUS=0
PICPAR_CRASH="2:7:$WORK/crash.marker" "$BIN" -net 127.0.0.1:0 -verify \
	-mesh 32x16 -n 2048 -p 4 -iters 10 -dist irregular -seed 7 -policy static \
	-checkpoint-dir "$WORK/ck-chaos" -checkpoint-every 3 -recover \
	>"$RLOG" 2>&1 || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
	echo "FAIL: recovering launcher exited $STATUS; output was:" >&2
	cat "$RLOG" >&2
	exit 1
fi
[ -f "$WORK/crash.marker" ] || {
	echo "FAIL: crash hook never fired — the recovery path went unexercised" >&2
	exit 1
}
grep -q 'rank 2 died, respawning' "$RLOG" || {
	echo "FAIL: no respawn in launcher output:" >&2
	cat "$RLOG" >&2
	exit 1
}
grep -q 'TotalTime 1\.1831223' "$RLOG" || {
	echo "FAIL: recovered run's golden TotalTime mismatch; output was:" >&2
	cat "$RLOG" >&2
	exit 1
}
CHAOS_FP="$(sed -n 's/^  Fingerprint \(.*\)$/\1/p' "$RLOG")"
if [ "$CHAOS_FP" != "$REF_FP" ]; then
	echo "FAIL: recovered fingerprint $CHAOS_FP != undisturbed $REF_FP" >&2
	cat "$RLOG" >&2
	exit 1
fi
echo "rank 2 killed and recovered: fingerprint $CHAOS_FP matches undisturbed run"

echo "NET SMOKE OK"
