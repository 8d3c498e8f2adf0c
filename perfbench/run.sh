#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload mc-pairwise --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --compare base.jsonl head.jsonl
#
# Run from the repository root. Every build output (binary, Go build cache)
# and every scratch file stays under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"

# Keep the toolchain hermetic: no network, no user go env, caches in the
# checkout.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTELEMETRY=off XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --root "$root" "$@"
