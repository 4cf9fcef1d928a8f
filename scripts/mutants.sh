#!/usr/bin/env bash
# mutants.sh — the mutant table: for each roadvet row, which gates catch a
# bug of the row's class injected into the real runtime (DESIGN §9.1).
#
#   scripts/mutants.sh              every patch under scripts/mutants/ (make mutants)
#   scripts/mutants.sh NAME...      only the named mutants, e.g. gaugebalance-1
#   scripts/mutants.sh -check       `git apply --check` of every patch (make lint)
#   MUTANTS_GATES="test chaos" scripts/mutants.sh ...   only the named gates
#                                   after roadvet (default: test chaos fuzz race)
#
# Each patch scripts/mutants/<row>-<k>.patch injects one bug of row <row>'s
# class. How the sites are picked, before any gate has run on them:
#   - Three mutants per row. Where the site named in DESIGN §9.1's
#     "motivating PR / bug" column still exists, one mutant goes there.
#   - The rest go in distinct functions, preferring error and cancel paths.
#   - windowcredit has one reserve site (kernel.conn.writeCopy), so its three
#     take three distinct paths out of that function: a return, an error
#     return and the loop's next turn.
#   - Sites are picked by this rule, not by which gates catch them, and a
#     patch is never re-cut to change a verdict.
#
# A run copies the working tree once (its tracked and untracked, not ignored,
# files) to a new `mktemp -d` directory, and for each patch applies it to a
# fresh copy of that snapshot, always at the same path, so the Go build and
# test caches carry over between mutants. The repository itself is never
# written, and the directory is removed on every exit path.
#
# A patched copy must pass `go build ./... && go vet ./...` before any gate
# runs: a patch that does not is `invalid` and stops the script non-zero (an
# unused variable would otherwise read as caught by every gate). Then the
# gates run in this order:
#   roadvet   `go run ./cmd/roadvet ./...` reports the row (`gone` once the
#             row is deleted);
#   test      `go test -count=1 -timeout 10m ./...`;
#   chaos     `make chaos`;   fuzz   `make fuzz-smoke`;   race   `make race`.
# The make gates run their recipe line by line. A line whose test binaries
# link none of the patched packages (`go list -deps -test`) runs the same
# code as on the unpatched tree and is not run. A gate with no line left is
# `n/a`. After the first gate other than roadvet that fails, the later gates
# are skipped and marked `—`, never as a pass; so is a gate MUTANTS_GATES
# leaves out. A failing gate is `FAIL`, and the last column names the tests
# that failed (`timeout` for a hang).
#
# The table is printed as each mutant finishes. A mutant that only roadvet
# catches is what keeps its row (DESIGN §9.1). Not in CI; a full run takes
# from minutes to hours, depending on how many mutants reach `make race`.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
dir=scripts/mutants

if [ "${1:-}" = -check ]; then
	rc=0 n=0
	for p in "$dir"/*.patch; do
		n=$((n + 1))
		if ! git apply --check "$p" 2>/dev/null; then
			echo "mutants: $p no longer applies: re-cut it at the moved site" >&2
			rc=1
		fi
	done
	[ "$rc" = 0 ] && echo "mutants: all $n patches apply"
	exit "$rc"
fi

patches=()
if [ $# -gt 0 ]; then
	for name in "$@"; do
		[ -f "$dir/$name.patch" ] || { echo "mutants: no patch $dir/$name.patch" >&2; exit 2; }
		patches+=("$dir/$name.patch")
	done
else
	patches=("$dir"/*.patch)
fi

gates=${MUTANTS_GATES:-test chaos fuzz race}
work=$(mktemp -d)
base=$work/base
tree=$work/tree
logs=$work/logs
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
mkdir -p "$base" "$logs"
git ls-files -z -co --exclude-standard |
	tar --null --ignore-failed-read -T - -cf - 2>/dev/null |
	tar -C "$base" -xf -
module=$(cd "$base" && go list -m)

# affected CMD: whether a `go test` command line links a patched package.
affected() {
	local pkgs=() a
	eval "set -- $1"
	for a in "$@"; do
		case $a in .|./*) pkgs+=("$a") ;; esac
	done
	[ ${#pkgs[@]} -gt 0 ] || return 0
	(cd "$tree" && go list -deps -test "${pkgs[@]}") | sed 's/ .*//' >"$work/deps"
	grep -qxF -f "$work/touched" "$work/deps"
}

# failed LOG: the top-level tests a log reports failing, or timeout.
failed() {
	{
		grep -q '^panic: test timed out' "$1" && echo timeout
		sed -n 's/^--- FAIL: \([^ /]*\).*/\1/p' "$1"
	} | sort -u | paste -sd, -
}

# gate NAME CMD...: run each command line of a gate in the patched copy and
# print its status; a failure's tests are appended to $work/caught.
gate() {
	local name=$1 ran=0 cmd
	shift
	for cmd in "$@"; do
		affected "$cmd" || continue
		ran=1
		if ! (cd "$tree" && bash -c "$cmd") >"$logs/$name" 2>&1; then
			failed "$logs/$name" >>"$work/caught"
			echo FAIL
			return
		fi
	done
	if [ "$ran" = 1 ]; then echo pass; else echo n/a; fi
}

recipe() { make -s -n -C "$tree" "$1"; }

echo "| mutant | roadvet row | test | chaos | fuzz | race | failing tests |"
echo "|---|---|---|---|---|---|---|"
for p in "${patches[@]}"; do
	name=$(basename "$p" .patch)
	row=${name%-*}
	rm -rf "$tree"
	cp -a "$base" "$tree"
	(cd "$tree" && git apply "$root/$p")
	if ! (cd "$tree" && go build ./... && go vet ./...) >"$logs/build" 2>&1; then
		cat "$logs/build" >&2
		echo "| $name | invalid: does not build or vet |"
		exit 1
	fi
	sed -n 's|^+++ b/||p' "$p" | xargs -n1 dirname | sort -u | while read -r d; do
		if [ "$d" = . ]; then echo "$module"; else echo "$module/$d"; fi
	done >"$work/touched"
	: >"$work/caught"

	if [ ! -d "$tree/internal/analysis/$row" ]; then
		vet=gone
	else
		(cd "$tree" && go run ./cmd/roadvet ./...) >"$logs/roadvet" 2>&1 || true
		if grep -q ": $row: " "$logs/roadvet"; then vet=FAIL; else vet=pass; fi
	fi
	statuses=()
	caught=0
	for g in test chaos fuzz race; do
		if [ "$caught" = 1 ] || [[ " $gates " != *" $g "* ]]; then
			statuses+=("—")
			continue
		fi
		case $g in
		test) s=$(gate test "go test -count=1 -timeout 10m ./...") ;;
		chaos) mapfile -t lines < <(recipe chaos); s=$(gate chaos "${lines[@]}") ;;
		fuzz) mapfile -t lines < <(recipe fuzz-smoke); s=$(gate fuzz "${lines[@]}") ;;
		race) mapfile -t lines < <(recipe race); s=$(gate race "${lines[@]}") ;;
		esac
		statuses+=("$s")
		[ "$s" = FAIL ] && caught=1
	done
	tests=$(paste -sd' ' "$work/caught")
	echo "| $name | $vet | ${statuses[0]} | ${statuses[1]} | ${statuses[2]} | ${statuses[3]} | ${tests:-} |"
done
