#!/bin/sh
# codegen.sh — pins the two rules DESIGN §13 sets for the code the Go
# compiler makes of the interpreter's dispatch loop, wasm.run
# (internal/wasm/exec.go). It measures no timing; it reads the compiler's
# own reports.
#
#   scripts/codegen.sh      (or: make codegen)
#
# It fails when
#   1. run calls anything but runtime.panicIndex and runtime.panicIndexU (the
#      frame's, the code's and the tables' index checks): a call that returns
#      makes the compiler spill the loop's state around every dispatch, and a
#      slice-bounds panic (runtime.panicSlice*) means a memory access the
#      compiler could not prove safe;
#   2. the bounds-check report (-d=ssa/check_bce/debug=1) names a check on
#      linear memory inside run: an index or slice of mem, or the length
#      check of an encoding/binary accessor inlined on mem[ea:] (reported at
#      the call's parenthesis). The frame index checks on the same lines are
#      not memory checks and stay.
# Needs go and awk.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
src=internal/wasm/exec.go

range=$(awk '/^func run\(/ {s = NR} s && !e && /^}/ {e = NR} END {print s, e}' "$src")
set -- $range
[ "$#" -eq 2 ] || { echo "codegen: no func run in $src" >&2; exit 1; }
first=$1 last=$2

fail=0

calls=$(go build -gcflags=-S ./internal/wasm 2>&1 |
	awk '/^[^ \t].*\/internal\/wasm\.run STEXT/ {f = 1; found = 1; next}
		/STEXT/ {f = 0}
		f && $4 == "CALL" {print $5, $3}
		END {if (!found) print "MISSING"}')
if [ "$calls" = "MISSING" ]; then
	echo "codegen: no assembly for wasm.run in the compiler's -S output" >&2
	exit 1
fi
bad=$(printf '%s\n' "$calls" | grep -v -E '^runtime\.panicIndexU?\(SB\) ' || true)
if [ -n "$bad" ]; then
	echo "codegen: wasm.run calls more than runtime.panicIndex/panicIndexU (target, position):"
	printf '%s\n' "$bad" | sort | uniq -c
	fail=1
fi

checks=$(go build -gcflags=-d=ssa/check_bce/debug=1 ./internal/wasm 2>&1 |
	LC_ALL=C awk -F: -v src="$src" -v first="$first" -v last="$last" '
		FNR == NR {line[FNR] = $0; next}
		$1 ~ ("(^|/)" src "$") && $2 >= first && $2 <= last {
			text = line[$2]
			before = substr(text, 1, $3 - 1)
			at = substr(text, $3)
			if (before ~ /mem$/ || at ~ /^\(mem\[/) print $1 ":" $2 ":" $3 ":" $4
		}' "$src" -)
if [ -n "$checks" ]; then
	echo "codegen: bounds checks on linear memory in wasm.run (lines $first-$last of $src):"
	printf '%s\n' "$checks"
	fail=1
fi

[ "$fail" -eq 0 ] && echo "codegen: ok (wasm.run at lines $first-$last calls only index panics; no memory bounds check)"
exit "$fail"
