#!/usr/bin/env bash
# Alternating before/after perfbench runs of one or more workloads: a git
# revision against the working tree.
#
#   tools/bench_ab.sh REV WORKLOAD[,WORKLOAD...] [PAIRS] [SECONDS]
#   e.g. tools/bench_ab.sh HEAD~1 sweep_zero_mean 10 10
#        tools/bench_ab.sh HEAD~1 sweep_fig1,crosscheck,sweep_zero_mean 10 40
#
# src/ at REV is exported with `git archive`; the working tree's src/ is
# copied as it is on disk.  perfbench/ and BENCHMARK.json are copied from the
# working tree into both temporary trees, so both sides run the same
# benchmark code with the same settings (`--seed 1 --trace 0`).  Nothing is
# written inside the repository.
#
# The workloads run one after another, each for its own PAIRS pairs.  Each
# pair runs both sides once, one after the other; odd pairs run REV first
# and even pairs the working tree first.  PAIRS defaults to 10 and SECONDS
# to BENCHMARK.json's run_seconds.  For each workload, every run's end-to-end
# metrics are printed, then for each metric the median and quartiles of each
# side and the number of pairs the working tree won (ties count for neither).
# The workload's last line is one JSON object with the same summary: the
# workload, the revision and its commit, for each metric each side's values
# in pair order, median and IQR/median and the pairs the working tree won,
# the failed runs per side, and the perfbench run context (nproc, Python,
# numpy, BLAS library and threads) of the first run.  These lines, collected
# in workload order, make a BENCH_*.json list:
#
#   tools/bench_ab.sh REV sweep_fig1,crosscheck,sweep_zero_mean 10 40 | grep '^{' \
#     | python3 -c 'import json, sys; print(json.dumps([json.loads(l) for l in sys.stdin], indent=1))'
#
# Exit status: 0 when every run finished, 1 when a run failed.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
    echo "usage: $0 REV WORKLOAD[,WORKLOAD...] [PAIRS] [SECONDS]" >&2
    exit 2
fi
rev=$1
workloads=$2
pairs=${3:-10}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
seconds=${4:-$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo/BENCHMARK.json")}
git -C "$repo" rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "$0: unknown revision '$rev'" >&2
    exit 2
}
case $pairs in ''|*[!0-9]*|0) echo "$0: PAIRS must be a positive integer, got '$pairs'" >&2; exit 2;; esac
case ,$workloads, in *,,*) echo "$0: empty workload name in '$workloads'" >&2; exit 2;; esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/rev" "$tmp/work"
git -C "$repo" archive "$rev" src | tar -x -C "$tmp/rev"
tar -C "$repo" --exclude=__pycache__ -cf - src | tar -x -C "$tmp/work"
for side in rev work; do
    tar -C "$repo" --exclude=__pycache__ -cf - perfbench BENCHMARK.json | tar -x -C "$tmp/$side"
done

for workload in ${workloads//,/ }; do
    results="$tmp/$workload.jsonl"
    for ((pair = 1; pair <= pairs; pair++)); do
        if ((pair % 2)); then order="rev work"; else order="work rev"; fi
        for side in $order; do
            out="$tmp/run.out"
            (cd "$tmp/$side" && PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py \
                --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >"$out") || {
                echo "bench_ab: run failed (pair $pair, $side)" >&2
                exit 1
            }
            tail -n 2 "$out" | python3 -c '
import json, sys
context, run = (json.loads(line) for line in sys.stdin)
run["pair"], run["side"] = int(sys.argv[1]), sys.argv[2]
run["context"] = context["context"]
print(json.dumps(run))
' "$pair" "$side" >>"$results"
        done
    done

    python3 - "$results" "$tmp/work/BENCHMARK.json" "$rev" "$workload" "$seconds" \
        "$(git -C "$repo" rev-parse "$rev^{commit}")" <<'EOF'
import json
import statistics
import sys

results, bench, rev, workload, seconds, commit = sys.argv[1:]
runs = [json.loads(line) for line in open(results)]
metrics = json.load(open(bench))["end_to_end"]
label = {"rev": rev, "work": "working tree"}

print(f"bench_ab: {workload}, {seconds} s per run, --seed 1, {rev} vs working tree")
for run in runs:
    values = "  ".join(f"{m['name']}={run['metrics'][m['name']]['value']:.6g}" for m in metrics)
    print(f"pair {run['pair']:2d} {run['side']:4s}  {values}  failed={run['failed']}/{run['attempted']}")


def value(side, pair, name):
    return next(r["metrics"][name]["value"] for r in runs if r["side"] == side and r["pair"] == pair)


pairs = sorted({r["pair"] for r in runs})
summary = {}
for m in metrics:
    name, sign = m["name"], (1 if m["better"] == "higher" else -1)
    summary[name] = {"unit": m["unit"], "better": m["better"]}
    for side in ("rev", "work"):
        xs = [value(side, p, name) for p in pairs]
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        print(f"{name:14s} {label[side]:>14s}: median {med:.6g}  quartiles {q1:.6g}-{q3:.6g}")
        summary[name][side] = {"values": xs, "median": med, "iqr_over_median": (q3 - q1) / med}
    wins = sum(sign * (value("work", p, name) - value("rev", p, name)) > 0 for p in pairs)
    print(f"{name:14s} working tree better in {wins}/{len(pairs)} pairs ({m['better']} is better)")
    summary[name]["work_won"] = wins
context = {key: runs[0]["context"][key] for key in ("nproc", "python", "numpy", "blas")}
print(json.dumps({
    "workload": workload,
    "seconds": float(seconds),
    "seed": 1,
    "pairs": len(pairs),
    "rev": rev,
    "rev_commit": commit,
    "metrics": summary,
    "failed": {side: sum(r["failed"] for r in runs if r["side"] == side) for side in ("rev", "work")},
    "context": context,
}))
EOF
done
