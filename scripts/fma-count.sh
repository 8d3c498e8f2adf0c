#!/usr/bin/env bash
# fma-count.sh — count the fused multiply-add instructions the compiler
# emits for each package under internal/ when cross-compiling to arm64,
# where Go may fuse x*y+z into one rounding and so change the bits of a
# result (amd64 never fuses). The cross-compile needs neither an arm64
# machine nor the network.
#
#   bash scripts/fma-count.sh                 print "<package> <count>" lines
#   bash scripts/fma-count.sh --check FILE    compare against a baseline in
#                                             that format: exit 1 if any
#                                             package's count rose, and list
#                                             the ones that fell, so the
#                                             baseline can step down
#
# Packages with no fused instruction are not listed; a package missing
# from the baseline counts as 0. Takes ~20 s (-a rebuilds the standard
# library for arm64, and a cached build would print no assembly).
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
	GOARCH=arm64 go build -a -gcflags='acasxval/...=-S' ./internal/... 2>&1 |
		awk '/^# /{pkg=$2; next} /\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t/{n[pkg]++}
			END{for (p in n) print p, n[p]}' |
		sort
}

case "${1:-}" in
"")
	count
	;;
--check)
	baseline=${2:?usage: fma-count.sh --check BASELINE}
	current=$(count)
	awk 'NR == FNR { if ($0 !~ /^#/ && NF == 2) base[$1] = $2; next }
		{ cur[$1] = $2 }
		END {
			status = 0
			for (p in cur) {
				b = (p in base) ? base[p] : 0
				if (cur[p] > b) {
					printf "FMA count rose: %s %d -> %d\n", p, b, cur[p]
					status = 1
				} else if (cur[p] < b) {
					printf "FMA count fell: %s %d -> %d (lower the baseline)\n", p, b, cur[p]
				}
			}
			for (p in base)
				if (!(p in cur) && base[p] > 0)
					printf "FMA count fell: %s %d -> 0 (lower the baseline)\n", p, base[p]
			exit status
		}' "$baseline" - <<<"$current"
	;;
*)
	echo "usage: fma-count.sh [--check BASELINE]" >&2
	exit 2
	;;
esac
