#!/usr/bin/env bash
# gobench_ab.sh — A/B one Go benchmark between a git revision and the
# working tree.
#
# Extracts REV (any commit or tree id) into a temp dir, builds the test
# binary of PKG in both trees, then runs PATTERN PAIRS times on each side,
# alternating which side goes first. Prints, per benchmark, each side's
# median ns/op and the median and interquartile range of the per-pair
# ratios head/base (below 1 = the working tree is faster). A ratio whose
# whole IQR sits on one side of 1 is a change; one whose IQR straddles 1
# is noise.
#
# Usage: scripts/gobench_ab.sh REV PATTERN PKG [PAIRS]
#   e.g. scripts/gobench_ab.sh HEAD 'BenchmarkPipeline/w=16/inlined' . 6
# BENCHTIME (default 1s) is passed to -test.benchtime.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 REV PATTERN PKG [PAIRS]" >&2
	exit 2
fi
rev=$1 pattern=$2 pkg=$3 pairs=${4:-6}
benchtime=${BENCHTIME:-1s}
root=$(git rev-parse --show-toplevel)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/gobench_ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" "$pkg")
(cd "$root" && go test -c -o "$tmp/head.test" "$pkg")

# run SIDE TREE PAIR appends "PAIR SIDE NAME NS" lines to $tmp/runs.
run() {
	(cd "$2/$pkg" && "$tmp/$1.test" -test.run '^$' -test.bench "$pattern" \
		-test.benchtime "$benchtime" -test.count 1 -test.timeout 30m) |
		awk -v pair="$3" -v side="$1" '/^Benchmark/ {
			for (i = 3; i < NF; i++) if ($(i+1) == "ns/op") { print pair, side, $1, $i; break }
		}' >>"$tmp/runs"
}

: >"$tmp/runs"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$tmp/base" "$i"
		run head "$root" "$i"
	else
		run head "$root" "$i"
		run base "$tmp/base" "$i"
	fi
done

# quart reads sorted numbers and prints "median q1 q3" (linear
# interpolation between order statistics).
quart() {
	awk '{ a[NR] = $1 }
	function q(p,   h, lo) { h = 1 + (NR - 1) * p; lo = int(h); return a[lo] + (h - lo) * (a[lo+1 > NR ? NR : lo+1] - a[lo]) }
	END { if (NR) printf "%.4g %.4g %.4g\n", q(0.5), q(0.25), q(0.75) }'
}

echo "base=$rev head=working tree pairs=$pairs benchtime=$benchtime"
printf '%-52s %12s %12s  %s\n' benchmark "base ns/op" "head ns/op" "head/base median [q1, q3]"
for name in $(awk '{ print $3 }' "$tmp/runs" | awk '!seen[$0]++'); do
	base=$(awk -v n="$name" '$3 == n && $2 == "base" { print $4 }' "$tmp/runs" | sort -g | quart)
	head=$(awk -v n="$name" '$3 == n && $2 == "head" { print $4 }' "$tmp/runs" | sort -g | quart)
	ratio=$(awk -v n="$name" '$3 == n { v[$1, $2] = $4; p[$1] = 1 }
		END { for (i in p) if (v[i, "base"] > 0 && v[i, "head"] != "") print v[i, "head"] / v[i, "base"] }' "$tmp/runs" |
		sort -g | quart)
	set -- ${ratio:-- - -}
	printf '%-52s %12s %12s  %s [%s, %s]\n' "$name" "${base%% *}" "${head%% *}" "$1" "$2" "$3"
done
