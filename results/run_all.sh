#!/bin/bash
# Regenerates every figure/table at quick scale (256 servers); pass --full for paper scale.
# Exits non-zero if any bench crashes (non-zero exit) or prints a shape[FAIL] line.
set -u
cd "$(dirname "$0")/.."
failed=()
for bin in fig3 fig4 fig5 fig6 fig7 fig8 fig9 tab1 rfact resilience ablate_static heterogeneity ablate_cache ablate_digests ablate_hysteresis speed durability antientropy tenants; do
  echo "=== $bin ==="
  ./target/release/$bin "$@" > results/$bin.tsv 2> results/$bin.log
  code=$?
  passes=$(grep -c 'shape\[PASS\]' results/$bin.tsv 2>/dev/null)
  fails=$(grep -c 'shape\[FAIL\]' results/$bin.tsv 2>/dev/null)
  echo "exit=$code (${passes:-0} passes, ${fails:-0} fails)"
  if [ "$code" -ne 0 ] || [ "${fails:-0}" -gt 0 ]; then
    failed+=("$bin")
  fi
done
# Bins that emit machine-readable BENCH_<name>.json drop it in the repo
# root; collect everything into results/ so one directory holds the run.
for f in BENCH_*.json; do
  [ -e "$f" ] && mv "$f" results/
done
if [ ${#failed[@]} -gt 0 ]; then
  echo "FAILED: ${failed[*]}"
  exit 1
fi
