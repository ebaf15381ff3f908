#!/bin/bash
# Smoke-output manifest: runs every terradir-bench experiment except
# `speed` at smoke scale (--servers 16 --time-mult 0.1) from the release
# build, each in its own temp dir, and hashes its stdout, exit code and
# BENCH_*.json. The experiments are the modules of
# crates/bench/src/bin/terradir-bench/ other than main.rs, so a module
# missing from the binary's experiment table exits 2 and shows as a diff.
#
#   results/smoke_manifest.sh --write   regenerate results/MANIFEST
#   results/smoke_manifest.sh --check   fail (exit 1) on any difference
#
# Outputs are seed-deterministic, so the check is exact. Only two values
# are normalised, by name, because they differ between debug and release
# builds and across toolchains:
#   - the "alloc_events" and "alloc_bytes" values in the JSON;
#   - the count in "N bytes of RunStats debug compared" on stdout.
# `speed` is excluded because its columns are wall-clock.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mode=${1:-}
case "$mode" in
  --write | --check) ;;
  *)
    echo "usage: $0 --write | --check" >&2
    exit 2
    ;;
esac

cargo build --release --quiet -p terradir-bench --bins

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
: > "$tmp/MANIFEST"
for src in crates/bench/src/bin/terradir-bench/*.rs; do
  bin=$(basename "$src" .rs)
  case "$bin" in main | speed) continue ;; esac
  mkdir "$tmp/$bin"
  code=0
  (cd "$tmp/$bin" && "$root/target/release/terradir-bench" "$bin" --servers 16 --time-mult 0.1 > stdout 2> stderr) || code=$?
  echo "$bin exit $code" >> "$tmp/MANIFEST"
  sed -E 's/[0-9]+ bytes of RunStats debug compared/N bytes of RunStats debug compared/' \
    "$tmp/$bin/stdout" > "$tmp/$bin/stdout.norm"
  echo "$bin stdout $(sha256sum < "$tmp/$bin/stdout.norm" | cut -d' ' -f1)" >> "$tmp/MANIFEST"
  for json in "$tmp/$bin"/BENCH_*.json; do
    [ -e "$json" ] || continue
    hash=$(sed -E 's/"alloc_(events|bytes)":[0-9]+/"alloc_\1":N/g' "$json" | sha256sum | cut -d' ' -f1)
    echo "$bin $(basename "$json") $hash" >> "$tmp/MANIFEST"
  done
done

if [ "$mode" = --write ]; then
  cp "$tmp/MANIFEST" results/MANIFEST
  echo "wrote results/MANIFEST ($(wc -l < results/MANIFEST) lines)"
elif diff -u results/MANIFEST "$tmp/MANIFEST"; then
  echo "smoke manifest: all outputs match results/MANIFEST"
else
  echo "smoke manifest: outputs differ from results/MANIFEST (rerun with --write if the change is deliberate)" >&2
  exit 1
fi
