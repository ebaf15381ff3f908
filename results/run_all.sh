#!/bin/bash
# Regenerates every figure/table at quick scale (256 servers); pass --full for paper scale.
# Exits non-zero if any bench crashes (non-zero exit) or prints a shape[FAIL] line.
set -u
cd "$(dirname "$0")/.."
failed=()
# The experiments are the modules of crates/bench/src/bin/terradir-bench/
# other than main.rs (the list smoke_manifest.sh walks too).
for src in crates/bench/src/bin/terradir-bench/*.rs; do
  bin=$(basename "$src" .rs)
  [ "$bin" = main ] && continue
  echo "=== $bin ==="
  ./target/release/terradir-bench $bin "$@" > results/$bin.tsv 2> results/$bin.log
  code=$?
  passes=$(grep -c 'shape\[PASS\]' results/$bin.tsv 2>/dev/null)
  fails=$(grep -c 'shape\[FAIL\]' results/$bin.tsv 2>/dev/null)
  echo "exit=$code (${passes:-0} passes, ${fails:-0} fails)"
  if [ "$code" -ne 0 ] || [ "${fails:-0}" -gt 0 ]; then
    failed+=("$bin")
  fi
done
# Experiments that emit machine-readable BENCH_<name>.json drop it in the repo
# root; collect everything into results/ so one directory holds the run.
for f in BENCH_*.json; do
  [ -e "$f" ] && mv "$f" results/
done
if [ ${#failed[@]} -gt 0 ]; then
  echo "FAILED: ${failed[*]}"
  exit 1
fi
