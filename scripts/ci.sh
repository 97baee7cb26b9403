#!/usr/bin/env bash
# Staged CI pipeline. Stages (in default order):
#
#   configure — cmake -B $BUILD_DIR
#   build     — compile everything
#   test      — full ctest suite, then the `parallel`-labeled suites
#               again under DEEPLENS_NUM_THREADS=1
#   bench     — bench_micro_cache + bench_micro_pipeline_batch +
#               bench_micro_store, then the regression gate
#               (scripts/check_bench.py vs bench/baselines/)
#   fuzz      — short-budget run of the fuzz battery (fuzz/), each target
#               seeded from deeplens_make_corpus output
#   tsan      — ThreadSanitizer build of the `parallel`-labeled suites
#   asan      — AddressSanitizer+UBSan build of the `parallel`-,
#               `persistence`- and `kernels`-labeled suites
#   docs      — docs/KNOBS.md consistency: every DEEPLENS_* env knob
#               referenced by src/ or bench/ (and ci.sh's own control
#               vars) must appear in the knob reference table, and every
#               DEEPLENS_* name in the table must be referenced by src/,
#               bench/, CMakeLists.txt or ci.sh
#
# Usage: scripts/ci.sh [build-dir]
#   DEEPLENS_CI_STAGES   comma/space-separated subset to run, in the
#                        order given (default: all of the above). Stages
#                        assume their prerequisites have run at some
#                        point (e.g. `test` needs a configured+built
#                        tree); tsan/asan configure their own build dirs
#                        and are self-contained.
# A per-stage timing summary, the ungated columnar fold ratio (after a
# bench stage) and the line totals of the tracked *.cc/*.h files under
# src/ and tests/ are printed at the end; the first failing
# stage aborts the pipeline with its name on stderr.
# -E so the ERR trap fires inside stage functions too (a plain `if !
# stage_x` guard would suppress errexit within the function and let a
# failing middle command slide).
set -eEuo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
NPROC="$(nproc)"

STAGES="${DEEPLENS_CI_STAGES:-configure build test bench fuzz tsan asan docs}"
STAGES="${STAGES//,/ }"

stage_configure() {
  cmake -B "$BUILD_DIR" -S .
}

stage_build() {
  cmake --build "$BUILD_DIR" -j"$NPROC"
}

stage_test() {
  (cd "$BUILD_DIR" && ctest --output-on-failure -j"$NPROC")
  # The parallel suites again on a one-worker pool, where every plan is
  # serial: results must not depend on the worker count.
  (cd "$BUILD_DIR" &&
    DEEPLENS_NUM_THREADS=1 ctest --output-on-failure -j"$NPROC" -L parallel)
}

stage_bench() {
  # Cache perf gate: warm >= 3x cold for the inference cache, the
  # decoded-segment cache, and the warm-restart phase, plus TinyLFU >= 2x
  # LRU on the hot set under scan traffic. Writes BENCH_cache.json.
  "$BUILD_DIR"/bench_micro_cache
  # Pipeline gate: batch+parallel vs tuple baseline. Writes
  # BENCH_pipeline.json.
  "$BUILD_DIR"/bench_micro_pipeline_batch
  # Storage gate: zone-map pruned columnar scan >= 2x the same scan over
  # every chunk, with zone maps pruning >= half the chunks. Writes
  # BENCH_store.json.
  "$BUILD_DIR"/bench_micro_store
  # Optimizer gate: UDF-first query reordered >= 2x, proxy cascade >=
  # 1.2x, both byte-identical to the naive plans. Writes
  # BENCH_plans.json.
  "$BUILD_DIR"/bench_tab1_plans --optimizer-only
  # Regression gate: fresh speedups must stay within 20% of the
  # committed baselines.
  python3 scripts/check_bench.py
}

stage_fuzz() {
  # Short-budget pass over the fuzz battery: regenerate the seed corpus,
  # then give each target a bounded run. Under clang this is real
  # libFuzzer; under gcc the standalone driver replays the corpus and
  # mutates from it — either way the targets' invariants (typed errors,
  # lossless round-trips, no UB) are exercised on every commit. Long
  # exploratory runs stay manual; this stage is a tripwire.
  cmake --build "$BUILD_DIR" -j"$NPROC" \
    --target fuzz_inference_value fuzz_record_store fuzz_codec \
             fuzz_columnar deeplens_make_corpus
  local corpus="$BUILD_DIR/fuzz-corpus"
  rm -rf "$corpus"
  "$BUILD_DIR"/deeplens_make_corpus "$corpus"
  "$BUILD_DIR"/fuzz_inference_value -runs=20000 -max_total_time=20 \
    "$corpus/inference"
  "$BUILD_DIR"/fuzz_record_store -runs=1500 -max_total_time=30 \
    "$corpus/store"
  "$BUILD_DIR"/fuzz_codec -runs=8000 -max_total_time=30 "$corpus/codec"
  "$BUILD_DIR"/fuzz_columnar -runs=1500 -max_total_time=30 \
    "$corpus/columnar"
}

stage_tsan() {
  local dir="${BUILD_DIR}-tsan"
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread \
    -DDEEPLENS_BUILD_BENCHES=OFF \
    -DDEEPLENS_BUILD_EXAMPLES=OFF \
    -DDEEPLENS_BUILD_FUZZERS=OFF
  # The deeplens_tests_<label> targets come from the label lists in
  # CMakeLists.txt, so the build matches the `ctest -L` selection.
  cmake --build "$dir" -j"$NPROC" --target deeplens_tests_parallel
  (cd "$dir" && ctest --output-on-failure -L parallel)
}

stage_asan() {
  local dir="${BUILD_DIR}-asan"
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
    -DDEEPLENS_BUILD_BENCHES=OFF \
    -DDEEPLENS_BUILD_EXAMPLES=OFF \
    -DDEEPLENS_BUILD_FUZZERS=OFF
  cmake --build "$dir" -j"$NPROC" \
    --target deeplens_tests_parallel deeplens_tests_persistence \
             deeplens_tests_kernels
  (cd "$dir" && ctest --output-on-failure -L 'parallel|persistence|kernels')
}

stage_docs() {
  # Knob-reference consistency: every DEEPLENS_* env knob the code reads
  # must be documented in docs/KNOBS.md. Matches quoted string literals
  # only, so preprocessor macros that merely share the prefix (e.g.
  # DEEPLENS_SVB_X86) don't count as env knobs; tests/ is excluded
  # because fixtures invent throwaway knob names on purpose.
  local knobs missing=0
  knobs="$( { grep -rhoE '"DEEPLENS_[A-Z0-9_]+"' src bench | tr -d '"';
              grep -hoE 'DEEPLENS_CI_STAGES' scripts/ci.sh;
            } | sort -u )"
  if [[ ! -f docs/KNOBS.md ]]; then
    echo "ci.sh: docs/KNOBS.md missing" >&2
    return 1
  fi
  local knob
  for knob in $knobs; do
    if ! grep -q "$knob" docs/KNOBS.md; then
      echo "ci.sh: knob ${knob} is read by the code but undocumented" \
           "in docs/KNOBS.md" >&2
      missing=1
    fi
  done
  # Reverse direction: every knob the table names must still be
  # referenced by the code, the build or this script, so a deleted
  # knob's row cannot outlive it.
  local documented
  documented="$(grep -oE 'DEEPLENS_[A-Z0-9_]+' docs/KNOBS.md | sort -u)"
  for knob in $documented; do
    if ! grep -rqw "$knob" src bench CMakeLists.txt scripts/ci.sh; then
      echo "ci.sh: knob ${knob} is documented in docs/KNOBS.md but" \
           "referenced nowhere in src/, bench/, CMakeLists.txt or ci.sh" >&2
      missing=1
    fi
  done
  if [[ "$missing" == "1" ]]; then return 1; fi
  echo "docs: all $(echo "$knobs" | wc -l) referenced knobs documented," \
       "all $(echo "$documented" | wc -l) documented knobs referenced"
}

declare -a RAN_NAMES=() RAN_SECS=()

print_summary() {
  if [[ ${#RAN_NAMES[@]} -eq 0 ]]; then return; fi
  echo
  echo "=== stage timing ==="
  local i
  for i in "${!RAN_NAMES[@]}"; do
    printf '  %-10s %5ss\n' "${RAN_NAMES[$i]}" "${RAN_SECS[$i]}"
  done
  # The columnar fold's parallel speedup is reported, not gated: a shared
  # host sometimes runs every thread of a process on one core, so a flat
  # floor flakes (ROADMAP item 5).
  if [[ " ${RAN_NAMES[*]} " == *" bench "* && -f BENCH_store.json ]]; then
    echo
    echo "=== reported, not gated ==="
    python3 -c 'import json, sys; print("  columnar_fold_parallel_speedup %.2f"
      % json.load(open(sys.argv[1]))["columnar_fold_parallel_speedup"])' \
      BENCH_store.json
  fi
  # Net lines removed is a reported metric: print the size of the tracked
  # C++ sources so a change's delta reads off two summaries.
  if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    echo
    echo "=== tracked *.cc/*.h lines ==="
    local dir
    for dir in src tests; do
      printf '  %-10s %6s\n' "${dir}/" "$(git ls-files -z -- "${dir}/*.cc" \
        "${dir}/*.h" | xargs -0 cat | wc -l)"
    done
  fi
}

for stage in $STAGES; do
  if ! declare -F "stage_${stage}" > /dev/null; then
    echo "ci.sh: unknown stage '${stage}' (valid: configure build test" \
         "bench fuzz tsan asan docs)" >&2
    exit 2
  fi
done

CURRENT_STAGE=""
on_error() {
  echo "ci.sh: stage '${CURRENT_STAGE}' FAILED" >&2
  print_summary
}
trap on_error ERR

for stage in $STAGES; do
  CURRENT_STAGE="$stage"
  echo
  echo "=== stage: ${stage} ==="
  t0=$SECONDS
  "stage_${stage}"
  RAN_NAMES+=("$stage")
  RAN_SECS+=($((SECONDS - t0)))
done

print_summary
echo
echo "ci.sh: all stages passed (${RAN_NAMES[*]})"
