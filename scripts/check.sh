#!/usr/bin/env bash
# One-shot verification gate: configure, build, run the full test suite,
# the verification layer, the paper benches (each exits 1 when a paper
# claim fails), Fig. 9's record at 1 vs 4 threads, the metrics key-set
# gate, the performance ledger's self-test and pinned outputs, the scalar
# (no SSE2) integer-dot build and the sanitizer passes. This is the tier-1
# entry point — if this script exits 0 the tree is good.
#
# Usage: scripts/check.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

step() { printf '\n== %s ==\n' "$*"; }

step "configure (${BUILD_DIR}, warnings as errors)"
cmake -B "${BUILD_DIR}" -S . -DSFC_WARNINGS_AS_ERRORS=ON >/dev/null

step "build (-j${JOBS})"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

step "full test suite"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

step "static netlist analysis (sfc_lint over examples/*.cir)"
# Every shipped example must be fully clean — including the semantic
# interval passes (subthreshold-window, vth-temp-drift, cim-array-shape,
# adc-range): exit 0 means zero findings of any severity.
for deck in examples/*.cir; do
  "${BUILD_DIR}/tools/sfc_lint" "${deck}"
done
# The acceptance demos must keep failing at error severity (exit 3): any
# other exit means the linter lost its teeth. The subthreshold-window deck
# reads with a 1.6 V wordline — statically provable to turn on an erased
# cell at 85 degC. The last two are parse-time rules: the device
# constructors refuse an inverted FeFET window and a negative resistor,
# and the parser reports each under its rule id.
for bad in floating-node:'I1 0 x 1u\nC1 x 0 1p\n.end' \
           vsource-loop:'V1 a 0 1\nV2 a 0 2\nR1 a 0 1k\n.end' \
           subthreshold-window:'VG g 0 1.6\nVD d 0 0.05\nZ1 d g 0 state=0\n.end' \
           fefet-vth-window:'V1 g 0 0.35\nR1 g d 10k\nZ1 d g 0 state=1 vthlow=1.8 vthhigh=0.3\n.end' \
           nonpositive-value:'V1 a 0 1\nR1 a 0 -5\n.end'; do
  rule="${bad%%:*}"
  printf '%b\n' "${bad#*:}" > "${BUILD_DIR}/lint_demo.cir"
  # Capture the status instead of piping, so pipefail does not eat it.
  status=0
  out="$("${BUILD_DIR}/tools/sfc_lint" "${BUILD_DIR}/lint_demo.cir")" \
    || status=$?
  if [[ ${status} -ne 3 ]]; then
    echo "sfc_lint exited ${status} on the ${rule} demo deck (expected 3)" >&2
    exit 1
  fi
  if grep -q "\[${rule}\]" <<<"${out}"; then
    echo "sfc_lint flags the ${rule} demo deck (exit 3, as expected)"
  else
    echo "sfc_lint FAILED to flag the ${rule} demo deck" >&2
    exit 1
  fi
done

step "golden / fuzz summary (verify_runner)"
# The metrics snapshot of the run over every case feeds the key-set gate
# below. The span trace covers one case: a trace of all eight is over
# 100 MB, the Fig. 7 case's a few MB.
"${BUILD_DIR}/tools/verify_runner" golden \
  --metrics "${BUILD_DIR}/metrics_golden.json"
"${BUILD_DIR}/tools/verify_runner" golden --case fig7_2t1fefet_cell \
  --trace "${BUILD_DIR}/trace_golden.json"
# ctest already runs the default 200-case campaign; this one covers ten
# times as many decks from another seed.
"${BUILD_DIR}/tools/verify_runner" fuzz --count 2000 --seed 1 --dump "${BUILD_DIR}"

step "paper benches (every bench except the two that train a network)"
# accuracy_vgg_cim and ablation_wordlength train a VGG and take minutes;
# the other figure/table benches take about 15 s together. The paper
# benches write their records (<name>.json) to the working directory, so
# every bench runs in a scratch directory under the build tree. A paper
# bench exits 1 when one of its claims fails: the gate then prints that
# bench's output, which names the claim, and fails.
BENCH_RUN_DIR="${BUILD_DIR}/bench_run"
mkdir -p "${BENCH_RUN_DIR}"
for src in bench/*.cpp; do
  name="$(basename "${src}" .cpp)"
  case "${name}" in
    accuracy_vgg_cim|ablation_wordlength) continue ;;
    fig9_montecarlo_variation) args=(--threads 4) ;;
    *) args=() ;;
  esac
  echo "${name} ${args[*]}"
  status=0
  out="$(cd "${BENCH_RUN_DIR}" && "../bench/${name}" "${args[@]}" 2>&1)" \
    || status=$?
  if [[ ${status} -ne 0 ]]; then
    printf '%s\n' "${out}"
    echo "${name} exited ${status}" >&2
    exit 1
  fi
done

step "Fig. 9 determinism (serial record byte-identical to the 4-thread one)"
# The Monte Carlo samples are a pure function of the run index, so a
# serial run in a second directory must write the same record byte for
# byte.
SERIAL_RUN_DIR="${BUILD_DIR}/bench_run_serial"
mkdir -p "${SERIAL_RUN_DIR}"
(cd "${SERIAL_RUN_DIR}" &&
  ../bench/fig9_montecarlo_variation --threads 1 >/dev/null)
cmp "${BENCH_RUN_DIR}/fig9_montecarlo_variation.json" \
  "${SERIAL_RUN_DIR}/fig9_montecarlo_variation.json"
echo "fig9_montecarlo_variation.json is identical at 1 and 4 threads"

step "metrics key-set gate (verify_runner golden over every case)"
# The deterministic counter/histogram names the golden run registers (the
# stamp-plan Newton path, DC solves, transients, Monte Carlo fan-out, the
# Table II VGG forward's dot batches) must match the reviewed golden —
# silent instrumentation drift in the solver hot path fails the tree.
"${BUILD_DIR}/tools/verify_runner" check-metrics "${BUILD_DIR}/metrics_golden.json" \
  --golden tests/goldens/metrics_keys.json

step "performance ledger self-test (perfbench, counters at 1 vs T threads)"
python3 perfbench/run.py --selftest

step "performance ledger pins (short runs per workload vs reference.json)"
# The self-test never reads the reference. These runs do: run.py exits 1
# when a pinned counter ledger or output hash differs ("correct": false),
# and set -e turns that into a failed gate.
workloads="$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for workload in ${workloads}; do
  python3 perfbench/run.py --workload "${workload}" --seed 0 --seconds 1
done
# Seed N runs input set N % 16. The noisy kernel's and the baseline
# fabric's logits hashes and row errors are pinned per set, and so are the
# Monte Carlo's solver counters and samples, so gate every workload on
# three more sets each (about 20 s apiece for the VGG ones, 6 s for
# mc_fig9).
for seed in 1 2 3; do
  python3 perfbench/run.py --workload mc_fig9 --seed "${seed}" --seconds 1
  python3 perfbench/run.py --workload vgg_noisy --seed "${seed}" --seconds 1
  python3 perfbench/run.py --workload vgg_clean --seed "${seed}" --seconds 1
done

step "SFC_TRACE=OFF build (zero-instrumentation flavour stays green)"
NOTRACE_DIR="${BUILD_DIR}-notrace"
cmake -B "${NOTRACE_DIR}" -S . -DSFC_TRACE=OFF -DSFC_WARNINGS_AS_ERRORS=ON \
  -DSFC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${NOTRACE_DIR}" -j "${JOBS}" \
  --target verify_runner test_trace test_exec
ctest --test-dir "${NOTRACE_DIR}" -L "trace|exec" --output-on-failure -j "${JOBS}"
# The disabled flavour registers no metrics, yet still writes a snapshot
# that must pass the schema check.
"${NOTRACE_DIR}/tools/verify_runner" golden \
  --metrics "${NOTRACE_DIR}/metrics_golden.json"
"${NOTRACE_DIR}/tools/verify_runner" check-metrics "${NOTRACE_DIR}/metrics_golden.json"

step "scalar masked_dot (-U__SSE2__ build, ctest -L \"nn|exec\")"
# Every x86-64 build defines __SSE2__, so CimDotEngine's integer dot runs
# SSE2's multiply-add there. This tree compiles and tests the scalar loop
# that is the whole kernel on targets without SSE2.
SCALAR_DIR="${BUILD_DIR}-scalar"
cmake -B "${SCALAR_DIR}" -S . -DCMAKE_CXX_FLAGS=-U__SSE2__ \
  -DSFC_WARNINGS_AS_ERRORS=ON -DSFC_BUILD_BENCH=OFF \
  -DSFC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${SCALAR_DIR}" -j "${JOBS}" --target test_quantize test_exec
ctest --test-dir "${SCALAR_DIR}" -L "nn|exec" --output-on-failure -j "${JOBS}"

step "UBSan pass (ctest -L \"spice|verify|lint|trace|nn|cim|exec|fefet|util|devices|data\" under -fsanitize=undefined)"
# -L is an AND filter when repeated; the regex is the union of the labels.
# _GLIBCXX_ASSERTIONS bounds-checks every std::vector / std::optional
# access, so an out-of-range index aborts here instead of reading garbage.
# nn covers CimDotEngine's noise-shortcut floors, dot_batch's span bounds
# and the integer dot's lane flush on a row of 270,000 elements; cim
# covers the row, tile and behavioural-model code and their per-cell
# length checks; exec covers parallel_for's chunking and drain
# tallies and the Monte Carlo run times; fefet the Preisach polarization
# cache; util the RNG, its argument checks and the strict CLI number
# parser; devices the MOSFET/diode models and their temperature caches;
# data the SynthCIFAR generator.
UBSAN_DIR="${BUILD_DIR}-ubsan"
cmake -B "${UBSAN_DIR}" -S . -DSFC_SANITIZE=undefined \
  -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS \
  -DSFC_BUILD_BENCH=OFF -DSFC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${UBSAN_DIR}" -j "${JOBS}"
ctest --test-dir "${UBSAN_DIR}" -L "spice|verify|lint|trace|nn|cim|exec|fefet|util|devices|data" \
  --output-on-failure -j "${JOBS}"
# The interval-oracle fuzz campaign under UBSan: the outward-rounding
# interval arithmetic and the fixpoint engine must be UB-free on 200
# generated decks, with zero solver escapes from the static bounds.
"${UBSAN_DIR}/tools/verify_runner" fuzz --count 200 --dump "${UBSAN_DIR}"

step "ThreadSanitizer pass (ctest -L \"exec|trace\" under -fsanitize=thread)"
# parallel_for's persistent workers (nested, concurrent and back-to-back
# jobs), the Monte Carlo and dot-batch fan-outs and the
# relaxed-atomic metrics registry they record into must be free of data
# races at 1 to 8 threads.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "${TSAN_DIR}" -S . -DSFC_SANITIZE=thread \
  -DSFC_BUILD_BENCH=OFF -DSFC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target test_exec test_trace
ctest --test-dir "${TSAN_DIR}" -L "exec|trace" --output-on-failure -j "${JOBS}"

step "clang-tidy (skipped automatically when the binary is absent)"
scripts/tidy.sh "${BUILD_DIR}"

step "all checks passed"
