#!/usr/bin/env bash
# Runs every benchmark binary and tees the combined output. Pass a build
# directory as $1 (default: ./build). Every benchmark writes a
# machine-readable JSON twin to ${BUILD_DIR}/BENCH_<name>.json, and any
# benchmark failure fails the whole run. Afterwards, emits Chrome traces
# for the example programs via agprof into ${BUILD_DIR}/traces/ (view in
# chrome://tracing or Perfetto).
set -euo pipefail
BUILD_DIR="${1:-build}"
for b in "${BUILD_DIR}"/bench/bench_*; do
  [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "================================================================="
  echo "== ${name}"
  echo "================================================================="
  "$b" --benchmark_min_time=0.2 \
    "--benchmark_out=${BUILD_DIR}/BENCH_${name#bench_}.json" \
    --benchmark_out_format=json 2>&1
  echo
done

AGPROF="${BUILD_DIR}/tools/agprof"
if [ -x "${AGPROF}" ]; then
  mkdir -p "${BUILD_DIR}/traces"
  for example in examples/*.pym; do
    name="$(basename "${example}" .pym)"
    echo "== agprof trace: ${name} =="
    # Some examples need structured (non-scalar) feeds; skip those.
    "${AGPROF}" "${example}" --runs=20 \
      --trace-out="${BUILD_DIR}/traces/${name}.json" || true
    echo
  done
fi
