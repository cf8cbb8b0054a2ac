#!/usr/bin/env sh
# Paired A/B benchmark of this checkout (B) against a parent commit (A).
#
#   tools/ab_bench.sh <parent-ref> <workload[,workload...]|all> [pairs=10]
#
# Unpacks <parent-ref> (`git archive`) and a snapshot of this checkout's
# working tree (its tracked and untracked files, ignored ones left out:
# `git ls-files -co --exclude-standard`) side by side into one temporary
# directory, so both sides run from fresh copies at alike paths, and,
# for each named workload (`all` = every workload of BENCHMARK.json), runs
# benchmarks/suite/run.py for seeds 1..pairs on both trees — alternating
# which side goes first, so neither always gets the quieter half of a
# pair — and hands the workload's two result files to
# benchmarks/suite/compare.py (one verdict per metric; its rows for the
# workloads that were not run are left out).  Exits 1 if any workload had
# a regression or a fixed value that differs.  Each side runs its *own*
# copy of the suite against its own src/, as the PR gate does.  Both
# copies and the result files are removed on any way out.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: tools/ab_bench.sh <parent-ref> <workload[,workload...]|all> [pairs=10]" >&2
    exit 2
fi
parent=$1
workloads=$2
pairs=${3:-10}

repo=$(cd "$(dirname "$0")/.." && pwd)
if [ "$workloads" = all ]; then
    workloads=$(python3 -c 'import json, sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$repo/BENCHMARK.json")
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab_bench.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

mkdir "$tmp/parent" "$tmp/change"
git -C "$repo" archive "$parent" | tar -x -C "$tmp/parent"
# a tracked file deleted in the working tree is listed but not copied
(cd "$repo" && git ls-files -z -co --exclude-standard \
    | tar --null -T - --ignore-failed-read -cf -) | tar -x -C "$tmp/change"

run_side() {  # run_side <tree> <out.json> <seed>
    (cd "$1" && python3 benchmarks/suite/run.py --workload "$workload" \
        --seed "$3" --trace 0 --out "$2" >/dev/null)
}

status=0
for workload in $(echo "$workloads" | tr ',' ' '); do
    i=1
    while [ "$i" -le "$pairs" ]; do
        echo "pair $i/$pairs ($workload)" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run_side "$tmp/parent" "$tmp/A.$workload.json" "$i"
            run_side "$tmp/change" "$tmp/B.$workload.json" "$i"
        else
            run_side "$tmp/change" "$tmp/B.$workload.json" "$i"
            run_side "$tmp/parent" "$tmp/A.$workload.json" "$i"
        fi
        i=$((i + 1))
    done
    echo "== $workload"
    python3 "$tmp/change/benchmarks/suite/compare.py" \
        "$tmp/A.$workload.json" "$tmp/B.$workload.json" >"$tmp/verdict" || status=1
    grep -v "no runs on one side" "$tmp/verdict" || true
done
exit "$status"
