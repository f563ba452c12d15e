#!/usr/bin/env bash
# benchpairs.sh PARENT CHANGE WORKLOAD [PAIRS] [SEED]
#
# Measures WORKLOAD of the repository benchmark (go run ./benchmark) at two
# git revisions in alternating pairs: the parent runs first in odd pairs,
# the change first in even ones. Each revision is extracted (git archive)
# into its own temporary checkout, its ./benchmark is built there, and
# every run starts in that checkout, because the benchmark reads
# BENCHMARK.json and writes .bench_build/ in its working directory. Runs
# last the declared run_seconds. Every run is appended with -out to
# parent.jsonl / change.jsonl in a results directory that is kept and
# named at the end; then the change's benchmark prints -compare of the two
# files, and the script prints how many pairs each side won on every
# end-to-end metric (ties count for neither).
#
# The checkouts are removed on exit. Set TMPDIR to choose where they and
# the results go. PAIRS defaults to 10 and SEED to 1. Run it inside the
# repository; it needs git, go and python3.
#
#   scripts/benchpairs.sh HEAD~1 HEAD ws-table7 10 2
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT CHANGE WORKLOAD [PAIRS] [SEED]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=${4:-10} seed=${5:-1}
root=$(git rev-parse --show-toplevel)

work=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null; rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
results=$(mktemp -d)

for side in parent change; do
    rev=${!side}
    dir=$work/$side
    mkdir "$dir"
    git -C "$root" archive "$(git -C "$root" rev-parse --verify "$rev^{commit}")" | tar -x -C "$dir"
    (cd "$dir" && go build -o "$work/$side.bench" ./benchmark)
    echo "$side: $rev ($(git -C "$root" rev-parse --short "$rev"))"
done

run() { # side; in the background, so a signal stops the run at once
    (cd "$work/$1" && exec "$work/$1.bench" -workload "$workload" -seed "$seed" -out "$results/$1.jsonl" >/dev/null) &
    wait $!
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent
        run change
    else
        run change
        run parent
    fi
    echo "pair $i of $pairs done"
done

(cd "$work/change" && "$work/change.bench" -compare "$results/parent.jsonl" "$results/change.jsonl")

# Pairs won: the i-th record of each file is pair i. Each end-to-end
# metric's direction comes from BENCHMARK.json.
python3 - "$work/change/BENCHMARK.json" "$results/parent.jsonl" "$results/change.jsonl" <<'EOF'
import json, sys

spec = json.load(open(sys.argv[1]))
sides = [[json.loads(line) for line in open(f)] for f in sys.argv[2:4]]
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    won = {"parent": 0, "change": 0}
    for a, b in zip(*sides):
        va, vb = (r["result"]["metrics"][name]["value"] for r in (a, b))
        if va != vb:
            won["change" if (vb < va) == lower else "parent"] += 1
    print(f"{name}: change won {won['change']} of {len(sides[0])} pairs, parent won {won['parent']}")
EOF
echo "results: $results"
