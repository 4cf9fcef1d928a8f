#!/bin/sh
# pairs.sh — the ten-pair protocol behind every BENCH_N.md (choosing-metrics
# §8): N alternating runs of the data-delivery benchmark on a parent revision
# and on the working tree, then the "END TO END … wins k/N … parentIQR" table.
#
#   scripts/pairs.sh PARENT_REV [N] [WORKLOAD]     (or: make pairs PARENT=… N=… WORKLOAD=…)
#
# The parent is a `git archive` of PARENT_REV under artifacts/pairs/ (no
# worktree is registered; the repository is left as it was); both sides run
# as binaries prebuilt with `go build ./bench`, the parent first on odd
# seeds and the change first on even ones, seeds 1..N. Without WORKLOAD a
# run is the full `bench -seed S -out F` (six workloads and the layer run,
# ~2 min 10 s each); with it, `-workload W -trace 0`. Every run's result
# file and log are kept beside the table (artifacts/pairs/{parent,change}.S.*).
# Above the table it prints where each binary's linker put the interpreter's
# two dispatch functions, wasm.(*Instance).exec and wasm.run, mod 64: guest
# code speed, so set-up and plan_* ops, moves with that placement alone.
# Run nothing else on the box meanwhile. Needs git, go, tar and python3.
set -eu

parent=${1:?usage: scripts/pairs.sh PARENT_REV [N] [WORKLOAD]}
n=${2:-10}
workload=${3:-}

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$parent^{commit}")
out=$root/artifacts/pairs
rm -rf "$out"
mkdir -p "$out/src"

git archive "$rev" | tar -x -C "$out/src"
(cd "$out/src" && go build -o "$out/bench.parent" ./bench)
go build -o "$out/bench.change" ./bench
rm -rf "$out/src"
for side in parent change; do
	go tool nm "$out/bench.$side" | grep -E 'wasm\.(\(\*Instance\)\.exec|run)$' |
		while read -r addr _ name; do
			echo "$side ${name##*/} at 0x$addr: $((0x$addr % 64)) mod 64"
		done
done >"$out/layout.txt"

run() { # side seed
	if [ -n "$workload" ]; then
		"$out/bench.$1" -seed "$2" -workload "$workload" -trace 0 -out "$out/$1.$2.json"
	else
		"$out/bench.$1" -seed "$2" -out "$out/$1.$2.json"
	fi >"$out/$1.$2.log" 2>&1 && return
	# A run the benchmark itself fails (a failed op, a violated guard, an
	# open loop that saturated) still writes its result: it stays in the
	# table and is named above it. Without a result there is nothing to pair.
	echo "$1 run, seed $2: $(tail -n 1 "$out/$1.$2.log")" | tee -a "$out/failed.txt" >&2
	[ -s "$out/$1.$2.json" ] || exit 1
}

seed=1
while [ "$seed" -le "$n" ]; do
	if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "pairs: seed $seed/$n $side" >&2
		run "$side" "$seed"
	done
	seed=$((seed + 1))
done

if [ -s "$out/failed.txt" ]; then
	echo "RUNS THE BENCHMARK FAILED (kept in the table):"
	cat "$out/failed.txt"
fi
echo "LAYOUT (the interpreter's dispatch functions in each binary)"
cat "$out/layout.txt"
echo "parent $rev, change: working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted')"
python3 - "$out" "$n" "$root/BENCHMARK.json" <<'PY'
import json, statistics, sys

out, n, spec = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
runs = {side: [json.load(open(f"{out}/{side}.{s}.json")) for s in range(1, n + 1)] for side in ("parent", "change")}
e2e = [(m["name"], m["better"]) for m in spec["end_to_end"]]
workloads = list(runs["parent"][0]["workloads"])

def med(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return statistics.median(v), q[0], q[2]

def values(side, w, metric, layer=False):
    if layer:
        return [r["workloads"][w]["layers"][metric] for r in runs[side]]
    return [r["workloads"][w]["metrics"][metric]["value"] for r in runs[side]]

print(f"END TO END ({n} alternating pairs, seeds 1..{n}; median [q1,q3] over the {n} run medians)")
for w in workloads:
    for name, better in e2e:
        p, c = values("parent", w, name), values("change", w, name)
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        (pm, p1, p3), (cm, c1, c3) = med(p), med(c)
        delta = (cm - pm) / pm * 100 if pm else 0.0
        clear = max(c) < min(p) if better == "lower" else min(c) > max(p)
        print(f"{w:<17} {name:<20} parent {pm:>9.4g} [{p1:.4g},{p3:.4g}]  change {cm:>9.4g} [{c1:.4g},{c3:.4g}]  "
              f"{delta:+6.1f}%  wins {wins}/{n} ties {ties}  parentIQR {p3 - p1:.4g}  every-change-better {clear}")
    tot = {side: [sum(r["workloads"][w][k] for r in runs[side]) for k in ("failed", "attempted")] for side in runs}
    print(f"{w:<17} failed/attempted: parent {tot['parent'][0]}/{tot['parent'][1]} change {tot['change'][0]}/{tot['change'][1]}")

print()
for w in workloads:
    for name in ("op_p50_us", "cpu_us_per_op"):
        pairs = [(round(a, 4), round(b, 4)) for a, b in zip(values("parent", w, name), values("change", w, name))]
        print(f"per pair {name} {w} (parent, change):\n{pairs}")

def plain(title, layer):
    print(f"\n{title} (median over {n} runs)")
    for w in workloads:
        wl = runs["parent"][0]["workloads"][w]
        names = wl.get("layers", {}) if layer else [m for m in wl["metrics"] if m not in dict(e2e)]
        for name in names:
            row = f"{w:<17} {name:<28}"
            for side in ("parent", "change"):
                v = values(side, w, name, layer)
                row += f" {side} {statistics.median(v):>10.4g} (min {min(v):.4g} max {max(v):.4g}) "
            print(row.rstrip())

have_layers = all("layers" in r["workloads"][workloads[0]] for side in runs for r in runs[side])
if have_layers:
    # Guest produce speed moves with where the linker puts the interpreter's
    # hot loop (ROADMAP "Parked"); set-up and plan_* ops run guest code, so
    # read their change beside it.
    print("\nLAYOUT COIN: wasm.produce_mb_s (layer run) beside the metrics that run guest code (median over runs)")
    for w in workloads:
        row = f"{w:<17}"
        for name, layer in (("wasm.produce_mb_s", True), ("setup_s", False), ("op_p50_us", False)):
            if name == "op_p50_us" and not w.startswith("plan_"):
                continue
            p, c = (statistics.median(values(side, w, name, layer)) for side in ("parent", "change"))
            row += f"  {name} {p:.4g} -> {c:.4g} ({(c - p) / p * 100:+.1f}%)"
        print(row)

plain("OTHER COUNTERS OF THE ROUNDS", False)
if have_layers:
    plain("LAYER RUN", True)
PY
