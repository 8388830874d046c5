#!/usr/bin/env bash
# Checks that the benchmark repeats: two sets of runs of the same code must
# agree within the benchmark's own bounds. It applies the driver's two rules
# to every end-to-end metric of every workload:
#
#   1. spread: the distance between the first and third quartile of a set's
#      values (Python's statistics.quantiles(values, n=4)) as a share of
#      their median stays within the metric's bound (setup_s is exempt);
#   2. drift: the second set's median is not worse than the first set's by
#      more than the bound.
#
# Usage, from the repository root:
#
#   benchmark/selfcheck.sh [runs-per-set] [seconds]
#
# runs-per-set defaults to 10 (seeds 1..runs; about half an hour in all);
# with fewer than 4 runs only rule 2 applies. seconds defaults to
# run_seconds from BENCHMARK.json. Run it first when a later change's
# verdict looks surprising: if this fails on unchanged code, the host is too
# disturbed to judge anything.
set -euo pipefail
runs=${1:-10}
[ -f BENCHMARK.json ] || { echo "selfcheck.sh: run from the repository root" >&2; exit 2; }
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
out=benchmark/out/selfcheck
rm -rf "$out"
for set in 1 2; do
  mkdir -p "$out/set$set"
  for seed in $(seq 1 "$runs"); do
    for w in $workloads; do
      echo "set $set seed $seed $w" >&2
      bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>>"$out/set$set/$w.log" | tail -n 1 >>"$out/set$set/$w.jsonl"
    done
  done
done

python3 - "$out" <<'EOF'
import json, statistics, sys

out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
failures = 0
print(f"{'workload':<12} {'metric':<22} {'median 1':>13} {'median 2':>13} {'spread 1':>9} {'spread 2':>9} {'drift':>8} {'bound':>6}")
for w in (w["name"] for w in manifest["workloads"]):
    sets = []
    for s in (1, 2):
        rows = [json.loads(line) for line in open(f"{out}/set{s}/{w}.jsonl") if line.strip()]
        if not rows or not all(r["correct"] and r["failed"] == 0 for r in rows):
            print(f"{w}: set {s} has failed or missing runs")
            failures += 1
        sets.append(rows)
    for m in manifest["end_to_end"]:
        name, bound, sign = m["name"], m["bound"], 1 if m["better"] == "lower" else -1
        med, spread = [], []
        for rows in sets:
            v = [r["metrics"][name]["value"] for r in rows]
            med.append(statistics.median(v))
            if len(v) >= 4:
                q = statistics.quantiles(v, n=4)
                spread.append((q[2] - q[0]) / med[-1])
            else:
                spread.append(float("nan"))
        drift = sign * (med[1] - med[0]) / med[0]  # > 0: the second set is worse
        bad = drift > bound or (name != "setup_s" and any(s > bound for s in spread))
        failures += bad
        print(f"{w:<12} {name:<22} {med[0]:>13.6g} {med[1]:>13.6g} {spread[0]:>9.4f} {spread[1]:>9.4f} {drift:>+8.4f} {bound:>6.2f}"
              + ("  FAIL" if bad else ""))
if failures:
    sys.exit(f"selfcheck: {failures} check(s) outside the bounds")
print("selfcheck: both sets agree within the bounds")
EOF
