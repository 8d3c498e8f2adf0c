#!/usr/bin/env bash
# Checks the checkout against a base revision on the same machine.
#
#   bash scripts/perf-gate.sh <base-rev>
#
# Checks out the merge base of <base-rev> and HEAD as a worktree in a
# temporary directory, runs perfbench from both roots (base and head
# alternated, seed = pair index) and compares the two result sets under the
# bounds in BENCHMARK.json. Fails when any run fails its output checks, a
# result is missing, or an end-to-end metric regressed.
set -euo pipefail

# Ten pairs: setup_s (a ~0.3 s table build) spreads 0.21-0.40 s between
# runs, and with three pairs one same-revision gate in three regressed it.
# Raise the pairs, never the bounds, if same-revision gates stop passing.
pairs=10
# Ten seconds still gives each workload over 100 results; a run then takes
# about 15 s with its output checks.
seconds=10
# The episode kernel, then the decision, fault, tracker and estimator
# layers; search and the service are left to the full benchmark.
workloads=(mc-pairwise campaign-mix)

if [[ $# -ne 1 ]]; then
	echo "usage: bash scripts/perf-gate.sh <base-rev>" >&2
	exit 2
fi
head_root="$(git rev-parse --show-toplevel)"
cd "$head_root"
base="$(git merge-base "$1" HEAD)"
tmp="$(mktemp -d)"
trap 'git worktree remove --force "$tmp/base" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"
echo "perf-gate: base $base, head $(git rev-parse HEAD) (working tree)" >&2

# run SIDE ROOT WORKLOAD SEED appends one run's result to $tmp/SIDE.jsonl.
run() {
	echo "perf-gate: $1 $3 seed $4" >&2
	if ! (cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) >>"$tmp/$1.jsonl"; then
		echo "perf-gate: $1 $3 seed $4 failed" >&2
		exit 1
	fi
}
for wl in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			run base "$tmp/base" "$wl" "$i"
			run head "$head_root" "$wl" "$i"
		else
			run head "$head_root" "$wl" "$i"
			run base "$tmp/base" "$wl" "$i"
		fi
	done
done

# --compare only notes a missing side, so count the results first.
for side in base head; do
	n="$(grep -c '"correct":' "$tmp/$side.jsonl" || true)"
	if ((n != pairs * ${#workloads[@]})); then
		echo "perf-gate: $side has $n results, want $((pairs * ${#workloads[@]}))" >&2
		exit 1
	fi
done
# Bounds come from the base revision, so a change cannot loosen its own gate.
bash perfbench/run.sh --root "$tmp/base" --compare "$tmp/base.jsonl" "$tmp/head.jsonl"
