#!/bin/bash
# Parent-vs-change summary diff: proves a refactor inert at benchmark scale.
#
#   results/ab_summaries.sh <rev> [workdir]
#
# Builds terrabench twice, each into its own target dir: once from the
# committed files of <rev> (exported with `git archive`, so no worktree is
# registered) and once from the working tree. Runs every workload named in
# BENCHMARK.json at seeds 1 and 9001 with `--seconds 1 --trace 0`, each
# side in its own directory, and compares the `# summary` lines with the
# "alloc_events"/"alloc_bytes" values blanked (they count allocator calls,
# not behaviour).
#
# Exits 1 on any difference, or when either side's last line lacks
# "correct":true. <workdir> (default: a fresh temp dir, removed on exit)
# keeps the export and both target dirs, so a second run with the same
# <workdir> rebuilds incrementally. Nothing under terrabench/ is edited.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <rev> [workdir]" >&2
  exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
if [ $# -eq 2 ]; then
  work=$(mkdir -p "$2" && cd "$2" && pwd)
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi

rm -rf "$work/old"
mkdir -p "$work/old"
git archive "$rev" | tar -x -C "$work/old"

build() { # <source tree> <target dir>
  cargo build --quiet --release --offline \
    --manifest-path "$1/terrabench/Cargo.toml" --target-dir "$2"
}
build "$work/old" "$work/target-old"
build "$root" "$work/target-new"

status=0
for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
  for seed in 1 9001; do
    for side in old new; do
      dir="$work/run-$side"
      mkdir -p "$dir"
      (cd "$dir" && "$work/target-$side/release/terrabench" --workload "$workload" \
        --seed "$seed" --seconds 1 --trace 0 > "$workload-$seed.out")
      if ! tail -n 1 "$dir/$workload-$seed.out" | grep -q '"correct":true'; then
        echo "$workload seed $seed: $side side is not correct" >&2
        status=1
      fi
      grep '^# summary ' "$dir/$workload-$seed.out" |
        sed -E 's/"alloc_(events|bytes)":[0-9]+/"alloc_\1":N/g' > "$dir/$workload-$seed.summary"
    done
    if [ ! -s "$work/run-old/$workload-$seed.summary" ]; then
      echo "$workload seed $seed: no summary line" >&2
      status=1
    elif diff -u "$work/run-old/$workload-$seed.summary" "$work/run-new/$workload-$seed.summary"; then
      echo "$workload seed $seed: summaries identical"
    else
      echo "$workload seed $seed: summaries differ" >&2
      status=1
    fi
  done
done
exit $status
