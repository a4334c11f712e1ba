#!/usr/bin/env bash
# Alternating before/after speedbench pairs against a base revision.
#
#   scripts/pairs.sh <base-rev> <label> [pairs] [seconds] [seed]
#
# Exports <base-rev> into a fresh temporary directory outside the repository
# (git archive, so no network and no worktree bookkeeping) and builds its
# speedbench from that tree's root and the working tree's from the
# repository root, each into its own target dir under target/pairs. Cargo
# reads .cargo/config.toml from the current directory upward, so building
# each side from its own root gives each revision its own release profile;
# an export inside the repository would build under the working tree's.
# Then it runs <pairs> pairs (default 10) of <seconds>-second runs (default
# 30) per workload at workload seed <seed> (default 0x5eed). Within a pair
# the order alternates: base first in even pairs, the working tree first in
# odd ones.
#
# Writes BENCH_<label>.json at the repository root: both revisions, and per
# workload and metric the median, q1 and q3 of each side, the pairs the
# working tree won, and every run's value, "correct" and "failed". Besides
# speedbench's end-to-end metrics, each run records raw_maccess_per_s: the
# median of the unscaled per-pass rates speedbench prints on stderr.
# Raw outputs, one stderr file per run, stay in target/pairs/<label>. Needs
# python3 for the summary.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: $0 <base-rev> <label> [pairs] [seconds] [seed]" >&2
    exit 2
fi
base_rev=$(git rev-parse --verify "$1^{commit}")
label=$2
pairs=${3:-10}
seconds=${4:-30}
seed=${5:-0x5eed}
workloads=(gups_hpt mummer_thp paper_quick)

head_rev=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    head_rev="$head_rev+dirty"
fi

root=$PWD/target/pairs
out=$root/$label
rm -rf "$out"
mkdir -p "$out"
base_tree=$(mktemp -d)
trap 'rm -rf "$base_tree"' EXIT
git archive "$base_rev" | tar -x -C "$base_tree"

echo "==> building speedbench at $base_rev and in the working tree" >&2
(cd "$base_tree" && cargo build --release --offline --quiet \
    --manifest-path speedbench/Cargo.toml --target-dir "$root/base-target")
cargo build --release --offline --quiet --manifest-path speedbench/Cargo.toml \
    --target-dir "$root/head-target"
bin_base=$root/base-target/release/mehpt-speedbench
bin_head=$root/head-target/release/mehpt-speedbench

# One run: its last stdout line (the result object) goes to the record file,
# its stderr (the per-pass rates) to its own file. A run that fails its
# output check still prints that line and exits 1; the summary reports it
# through "correct" and "failed".
run() {
    local side=$1 bin=$2 w=$3 i=$4
    local line
    line=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>"$out/$side-$w-$i.stderr" | tail -n 1) || true
    printf '%s\t%s\t%s\t%s\n' "$w" "$i" "$side" "$line" >>"$out/runs.tsv"
}

for w in "${workloads[@]}"; do
    for i in $(seq 0 $((pairs - 1))); do
        echo "==> $w pair $((i + 1))/$pairs" >&2
        if [ $((i % 2)) -eq 0 ]; then
            run base "$bin_base" "$w" "$i"
            run head "$bin_head" "$w" "$i"
        else
            run head "$bin_head" "$w" "$i"
            run base "$bin_base" "$w" "$i"
        fi
    done
done

python3 - "$out" "BENCH_$label.json" "$base_rev" "$head_rev" \
    "$pairs" "$seconds" "$seed" <<'EOF'
import json
import re
import statistics
import sys

out, dest, base_rev, head_rev, pairs, seconds, seed = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
better["raw_maccess_per_s"] = "higher"

# speedbench's per-pass stderr line: "pass N: X Maccess/s scaled, Y raw, ...".
PASS = re.compile(r"pass \d+: \S+ Maccess/s scaled, (\S+) raw")


def raw_rate(path):
    """The median unscaled rate of a run's passes, or None without any."""
    try:
        with open(path) as f:
            rates = [float(m.group(1)) for m in PASS.finditer(f.read())]
    except OSError:
        return None
    return statistics.median(rates) if rates else None


runs = {}
for line in open(f"{out}/runs.tsv"):
    w, i, side, result = line.rstrip("\n").split("\t", 3)
    try:
        r = json.loads(result)
    except ValueError:
        r = {"correct": False, "failed": None, "metrics": {}}
    raw = raw_rate(f"{out}/{side}-{w}-{i}.stderr")
    if raw is not None:
        r.setdefault("metrics", {})["raw_maccess_per_s"] = {"value": raw}
    runs.setdefault(w, {}).setdefault(side, {})[int(i)] = r


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


workloads = {}
for w, sides in runs.items():
    entry = {"runs": {}, "metrics": {}}
    for side in ("base", "head"):
        entry["runs"][side] = [
            {
                "correct": r.get("correct"),
                "failed": r.get("failed"),
                "raw_maccess_per_s": r.get("metrics", {})
                .get("raw_maccess_per_s", {})
                .get("value"),
            }
            for _, r in sorted(sides.get(side, {}).items())
        ]
    for metric, direction in better.items():
        values = {}
        for side in ("base", "head"):
            values[side] = {
                i: r["metrics"][metric]["value"]
                for i, r in sides.get(side, {}).items()
                if metric in r.get("metrics", {})
            }
        both = sorted(set(values["base"]) & set(values["head"]))
        if not both:
            continue
        m = {}
        for side in ("base", "head"):
            xs = [values[side][i] for i in both]
            q1, med, q3 = quartiles(xs)
            m[side] = {"median": med, "q1": q1, "q3": q3, "values": xs}
        sign = 1 if direction == "higher" else -1
        m["better"] = direction
        m["wins"] = sum(sign * (values["head"][i] - values["base"][i]) > 0 for i in both)
        m["pairs"] = len(both)
        m["median_gain"] = sign * (m["head"]["median"] - m["base"]["median"])
        m["base_iqr"] = m["base"]["q3"] - m["base"]["q1"]
        entry["metrics"][metric] = m
    workloads[w] = entry

report = {
    "base": base_rev,
    "head": head_rev,
    "seed": seed,
    "pairs": int(pairs),
    "seconds": float(seconds),
    "workloads": workloads,
}
with open(dest, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
for w, entry in workloads.items():
    for metric, m in entry["metrics"].items():
        print(
            f"{w:12} {metric:17} base {m['base']['median']:.4g} "
            f"[{m['base']['q1']:.4g}, {m['base']['q3']:.4g}]  head {m['head']['median']:.4g} "
            f"[{m['head']['q1']:.4g}, {m['head']['q3']:.4g}]  wins {m['wins']}/{m['pairs']}"
        )
print(f"wrote {dest}")
EOF
