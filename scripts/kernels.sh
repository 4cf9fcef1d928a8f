#!/bin/sh
# kernels.sh — the speed of the guest's four kernels on a parent revision
# and on the working tree: N alternating runs of BenchmarkGuestProduce1MB,
# BenchmarkGuestChecksum1MB, BenchmarkGuestSerialize1MB and
# BenchmarkGuestDeserialize1MB (internal/guest, the kernels on mapped memory
# as a shim runs them), then per kernel the median MB/s and lower quartile of
# each side and the runs the change won. A kernel one side has no benchmark
# for is named and skipped. Above the table it prints where each test
# binary's linker put the dispatch loop, wasm.run, mod 64: a kernel's speed
# moves with that placement alone, so a kernel the change does not touch (the
# codec, which has no word runs) is the control for one that it does.
#
#   scripts/kernels.sh PARENT_REV [N]     (or: make kernels PARENT=… [N=12])
#
# The parent is a `git archive` of PARENT_REV under artifacts/kernels/ (no
# worktree is registered); both sides are `go test -c` binaries built
# before the first run, the parent first in odd runs and the change first in
# even ones, each run in its own tree's package directory. Every run's
# output is kept (artifacts/kernels/{parent,change}.R.txt). It times and
# gates nothing, and CI does not run it: the numbers drift across days, so
# only the two sides of one sitting compare. Run nothing else on the box
# meanwhile. Needs git, go, tar and python3.
set -eu

parent=${1:?usage: scripts/kernels.sh PARENT_REV [N]}
n=${2:-12}

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$parent^{commit}")
out=$root/artifacts/kernels
rm -rf "$out"
mkdir -p "$out/src"

git archive "$rev" | tar -x -C "$out/src"
(cd "$out/src" && go test -c -o "$out/guest.parent.test" ./internal/guest)
go test -c -o "$out/guest.change.test" ./internal/guest

# offset BINARY prints the address mod 64 of wasm.run in BINARY.
offset() {
	go tool nm "$1" | awk '/ T .*internal\/wasm\.run$/ {print $1}' |
		while read -r addr; do echo $((0x$addr % 64)); done
}

run() { # side run
	if [ "$1" = parent ]; then dir=$out/src/internal/guest; else dir=$root/internal/guest; fi
	(cd "$dir" && "$out/guest.$1.test" -test.run '^$' -test.bench 'Guest(Produce|Checksum|Serialize|Deserialize)1MB' -test.timeout 10m) >"$out/$1.$2.txt"
}

r=1
while [ "$r" -le "$n" ]; do
	if [ $((r % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "kernels: run $r/$n $side" >&2
		run "$side" "$r"
	done
	r=$((r + 1))
done

echo "parent $rev, change: working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted')"
echo "wasm.run mod 64: parent $(offset "$out/guest.parent.test"), change $(offset "$out/guest.change.test")"
python3 - "$out" "$n" <<'PY'
import re, statistics, sys

out, n = sys.argv[1], int(sys.argv[2])

def speeds(side, kernel):
    """MB/s of kernel in each of the side's runs, in run order; None when
    the side has no such benchmark."""
    v = []
    for r in range(1, n + 1):
        text = open(f"{out}/{side}.{r}.txt").read()
        m = re.search(rf"^Benchmark{kernel}\S*\s.*?([\d.]+) MB/s", text, re.M)
        if not m and r == 1 and f"Benchmark{kernel}" not in text:
            return None
        if not m:
            sys.exit(f"kernels: no {kernel} result in {out}/{side}.{r}.txt")
        v.append(float(m.group(1)))
    return v

def med(v):
    q1 = statistics.quantiles(v, n=4)[0] if len(v) > 1 else v[0]
    return statistics.median(v), q1

print(f"GUEST KERNELS ({n} alternating runs; MB/s, higher is better; median (lower quartile))")
for kernel in ("GuestProduce1MB", "GuestChecksum1MB", "GuestSerialize1MB", "GuestDeserialize1MB"):
    p, c = speeds("parent", kernel), speeds("change", kernel)
    if p is None or c is None:
        print(f"{kernel:<19} skipped: the {'parent' if p is None else 'change'} has no such benchmark")
        continue
    (pm, p1), (cm, c1) = med(p), med(c)
    wins = sum(b > a for a, b in zip(p, c))
    print(f"{kernel:<19} parent {pm:7.0f} ({p1:.0f})  change {cm:7.0f} ({c1:.0f})  {(cm - pm) / pm * 100:+6.1f}%  wins {wins}/{n}")
PY
