#!/usr/bin/env bash
# CI entry point: plain build + full ctest, then the same suite hardened
# under ASan+UBSan and TSan (CMake presets `asan` / `tsan`). The TSan leg is
# what proves the parallel execution engine race-free: it runs the baton
# scheduler, the framework suites and runtime_pool_test with real threads.
#
# The `metrics` mode is the focused observability leg: it runs the metrics
# unit tests (with runtime/json.h's never-truncating appendf), the golden
# exporter test (every export's golden but the engine rollup's: the
# fixed-seed run's metrics/trace/comm files and the fault, audit, session,
# postmortem, telemetry, OpenMetrics, stitched-trace and phase_report pins
# over hand-built inputs), the model-vs-measured self-checks
# (bench/validate_model --check and --check-comm) and every test of the
# comm report built from the transfer log (net_test's Router cases,
# fault_test's delay-spike case, tcp_transport's socket flow parity) under
# ASan+UBSan — CI fails on any counter drift between the runtime metrics and
# the analytical cost model, or any wire-byte drift between the measured
# communication and the closed-form comm model. The full asan/plain legs
# also include these tests via ctest.
#
# The `engine` mode is the session-engine concurrency leg: it runs the
# engine tests (admission cap, the shared generator-table cache, an engine
# session equal to a bare run_framework run, determinism under load, the
# multi-session stress test) under TSan — many driver threads race through
# one shared thread pool, cache and metrics registry, which is exactly the
# surface TSan exists for.
#
# The `chaos` mode is the fault-injection leg: the seeded fault-matrix soak
# (drop/corrupt/delay/crash x phase x party over both frameworks, plus the
# channel/codec fault unit tests and the tampered-proof security tests) runs
# under ASan+UBSan — every injected fault must end in a correct ranking or a
# typed ProtocolFault, never UB. The engine fault-isolation soak (crash-killed
# sessions vs bit-identical survivors over a shared precompute cache) runs
# under TSan, since session isolation is a concurrency property.
#
# The `multiexp` mode is the fused-exponentiation crypto leg: the
# differential suite (Group::dual_exp's Straus ladders, the fixed-base
# tables and Group::exp_fixed vs naive Group::exp on every group family,
# and exp_fixed vs GMP's mpz_powm on the Schnorr groups), the batched-inversion
# KATs, the parallel-determinism suite and the phase-2 oracle (the fused
# comparison circuit and chain hop vs the naive evaluation, value- and
# byte-identical on every group family, and the hop split into draw,
# 64-ciphertext ladder and permutation tasks over sets of 1 to 130
# ciphertexts) run under ASan+UBSan — index
# arithmetic over window digits and digit tables is exactly the surface
# ASan watches. Both group families cut a batch into lane calls by one
# split (lanes::split_lanes: pairs of 8-lane batches, a last batch of two
# or more padded, one leftover element scalar), so the same leg runs the
# batch ladders' oracles on both:
# mpz_modular_test's per-lane GMP oracle (MontCtx::exp_many / dual_exp_many
# vs mpz_powm on every 4-limb modulus, over every split into batch pairs,
# single and padded batches and scalar remainders and mixed-width
# exponents, into a span between sentinels, failing on an IFMA host unless
# the lanes set the elements the split assigns them), its lane-squaring oracle (asq8 vs
# GMP and amm8), its mpz_invert oracle for MontCtx::inv_many, multiexp_test's
# batch-vs-per-element differential and count tests (Group::exp_many /
# dual_exp_many / inv_many / exp_fixed through MeteredGroup) and
# crypto_test's batch-vs-per-element zero test
# (crypto::count_zero_decryptions on every group family); building it
# under -Werror also proves the
# pragma-scoped IFMA kernel compiles warning-free. The leg also runs the
# mpz_modular suite, whose binary inverse kernel indexes fixed stack limb
# buffers at every width the GMP differential tests use (1 to 64 limbs),
# and every suite that pins the
# DL decode contract (a range check 1 <= z <= q on the canonical |x|
# encoding): group_test's accept/reject cases and random-bytes property,
# mpz_modular_test's GMP oracle for the encoding, and wire_test's
# corrupted-element and batch-decode cases (the limb-level batch decode
# fails on the same element with the same error as one-by-one
# deserialize). EcGroup's stack-limb point formulas run here at
# every field width: multiexp_test's EC oracle (textbook affine addition
# and doubling over GMP, against mul / exp / exp_g / exp_fixed / exp_many /
# dual_exp / dual_exp_many and the serialized bytes on P-192 at 3 limbs and
# P-224 / P-256 at 4) and ec_exhaustive_test's full addition table on a
# 1-limb curve with a = 2 (the general-a doubling) and its batch forms on
# every point of that order-100 curve, in calls of 16, 13, 9 and 5 (a
# pair, a padded pair, a batch with a scalar remainder, a padded batch)
# with an order-2 doubling in a pair's second batch, and multiexp_test's EC
# lane oracle (EcLaneTest: EcGroup::exp_many / dual_exp_many lane by lane
# against the GMP oracle and the scalar ladder's exact Jacobian triple, on
# P-192 / P-224 / P-256 batches of 8, 16, 64 and 67 with identity bases,
# zero and edge exponents, x == y, y == x^-1 and the P = Q scalar rerun;
# its pair test puts a P = Q lane in a pair's first and second batch and
# its padding test checks that padded lanes read no input past the call),
# and BatchSplitTest, which runs all four batch forms of the three curves
# and of dl-test-256 at sizes 1-7, 9, 15, 16, 17, 23, 24, 31, 33, 35, 59
# and 67 from inputs exactly as long as the call (so a padded lane that
# reads past it reads past an allocation, which ASan reports) into an
# output span between sentinel elements; on an IFMA host
# Group::lane_elements() must show the lanes set every element but a
# remainder below lanes::kPadFrom.
# The fixed-base
# combs' batch forms run here too: multiexp_test's comb tests
# (exp_fixed_many / exp_g_many against per-element exp_fixed / exp_g, GMP's
# mpz_powm on dl-test-256 and dl-1024 and the EC oracle on the three
# curves, at sizes 0 to 67 with all-zero and all-0xF windows and scalars
# wider than the table, a P = P rerun through a table wider than the
# order, and MeteredGroup's forwarding and counting), ec_exhaustive_test's
# combs over a table of every point of its order-100 curve, and the phase-2
# oracle's batched compare circuit and β encryption. After the tests the
# leg runs micro_groupops' hop-chunk, batch-ladder, lane-product,
# fixed-base and compare-circuit benchmarks once, so the lane gathers
# (ladder tables and comb tables), the reruns, the paired 8-lane batches,
# the lane squaring and the scalar tails also run under the sanitizers on
# the protocol's shapes, batches of 2, 7, 8, 16, 35, 59 and 64 on P-256 and
# dl-test-256 included (the padded pairs and batches). The EC lane ladders keep their digit tables
# on the stack: a P-256 dual_exp_many pair's frame is ~62 KB (DESIGN.md
# Sec. 5e), well inside the default thread stack under ASan. group_test also pins
# the canonical EC decode (x, y < p; an all-zero identity) with a
# random-encodings property on P-192 and P-256. The secret-sharing suites
# run here too (sss_shamir, sss_sort, sss_topk): the Shamir/GRR engine
# keeps its shares on limb arrays and its scratch residues on the stack,
# dealt and recombined through MontCtx's add/sub/mul_add limb loops on the
# fixed 1-limb kernel, so sss_shamir_test's GMP re-evaluation of a sharing,
# a GRR multiplication and an opening (1-, 2- and 4-limb fields) and
# sss_sort_test's pinned ranks and costs run with every index checked;
# mpz_modular_test's oracle for the 1- and 2-limb kernels (mul, exp,
# dual_exp, exp_many, inv_many and the limb add/sub/mul_add at every
# kernel width) is part of the leg's mpz_modular run.
#
# The `telemetry` mode is the live-observability leg: the telemetry suite
# (sampler lifecycle, concurrent snapshot-vs-absorb races, the telemetry-off
# golden non-perturbation invariant, OpenMetrics exposition validated by
# scripts/check_openmetrics.py from inside the test) plus the engine
# watchdog stalled->fault test run under TSan — samplers and watchdogs read
# engine state while sixteen driver threads mutate it, which is exactly the
# surface TSan exists for.
#
# The `flake` mode hunts intermittent failures in the timing-sensitive
# threaded suites: telemetry, engine_fault, tcp_transport and runtime_pool
# (the thread pool's job-lifetime stress cases) run under TSan with
# `ctest --repeat until-fail:20`, so one failure in twenty runs of any of
# them fails the leg.
#
# The `audit` mode is the forensics/conformance leg: the conformance-audit
# suite (clean runs audit to zero findings, faulted/degraded/tampered runs
# to typed ones, postmortem atomicity and determinism), the ppgr_server
# exit-contract integration test, the ppgr_cli / ppgr_party directive-file
# error test (cli_parse_test) and — because the audit's expectations
# are the closed-form model — the model suites (benchcore_test,
# model_validation, comm_validation) run under ASan+UBSan.
#
# The `chaos` leg additionally drives one known-faulting scenario through
# ppgr_server with --postmortem-dir build/chaos_postmortems/ and archives
# the resulting ppgr.postmortem.v1 bundles — a failing chaos investigation
# starts from the bundle's deterministic fault report (the full injection
# log), not from a rerun.
#
# The `bench-regress` mode is the perf-regression gate: it reruns the
# parallel_speedup and engine_throughput benches with the checked-in
# baselines' exact configurations and compares both fresh reports against
# BENCH_parallel.json / BENCH_engine.json in one scripts/bench_compare.py
# invocation — operation counts, cache hit/miss counts, message counts and
# byte totals must match exactly (deterministic; any drift fails),
# wall-clock/throughput/latency drift beyond 20% only warns (1-core CI
# boxes are noisy). After a deliberate protocol/codec change, regenerate:
#   ./build/bench/parallel_speedup --out BENCH_parallel.json
#   ./build/bench/engine_throughput --out BENCH_engine.json
#
# The `sockets` mode is the real-transport leg: the net::tcp suite (frame
# codec over flaky socketpairs, loopback transport meshes, the full
# protocol over sockets vs the same-seed simulator) and the process-level
# launcher test run under ASan+UBSan; the transport mesh + in-process
# socket E2E tests run again under TSan — per-peer reader threads feeding
# inboxes while protocol threads send is exactly the surface TSan watches.
#
# The `perfbench` mode builds the repository benchmark (perfbench/, which
# compiles src/ into its own tree) and smokes both of its workloads for a
# couple of seconds, he-n16 traced through its timing decorator: the leg
# fails when the build or a run exits non-zero, when a run's JSON result
# does not report "correct": true, or when traced he-n16 reports more than
# 100,000 group.mul.calls per session. It is the only leg that compiles
# perfbench against the current src/ API.
#
# Usage: scripts/ci.sh [plain|asan|tsan|engine|metrics|chaos|multiexp|telemetry|flake|audit|sockets|bench-regress|perfbench|all]
#        (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
MODE="${1:-all}"

run_leg() {
  local preset="$1"
  shift
  echo "==== [${preset}] configure + build + test ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${JOBS}"
  ctest --preset "${preset}" -j "${JOBS}" "$@"
}

bench_regress() {
  echo "==== [bench-regress] benches vs checked-in baselines ===="
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" \
      --target parallel_speedup engine_throughput
  local fresh_parallel="build/bench_regress_current.json"
  local fresh_engine="build/bench_regress_engine_current.json"
  ./build/bench/parallel_speedup --out "${fresh_parallel}"
  ./build/bench/engine_throughput --out "${fresh_engine}"
  python3 scripts/bench_compare.py \
      BENCH_parallel.json "${fresh_parallel}" \
      BENCH_engine.json "${fresh_engine}"
}

perfbench_smoke() {
  local workload result he_result
  for workload in he-n16 engine-mix; do
    echo "==== [perfbench] ${workload}, 2 s, traced ===="
    result="$(python3 perfbench/run.py --workload "${workload}" --seconds 2 \
        --trace 1 | tail -n 1)"
    echo "${result}"
    if [[ "${workload}" == he-n16 ]]; then he_result="${result}"; fi
    if ! python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1]).get("correct") is not True)' \
        "${result}"; then
      echo "perfbench: ${workload} did not report \"correct\": true" >&2
      exit 1
    fi
  done
  # A session executes ~58k products. A comb that runs through Group::mul
  # again (the Elem-boxed comb once issued ~538k per traced session) would
  # make the traced run time a different program from the untraced one.
  if ! python3 -c 'import json, sys; m = json.loads(sys.argv[1])["metrics"]; sys.exit(m["group.mul.calls"]["value"] > 100000)' \
      "${he_result}"; then
    echo "perfbench: traced he-n16 ran more than 100,000 group.mul calls per session" >&2
    exit 1
  fi
}

# Archives forensic bundles from a known-faulting chaos scenario: a crash
# plan kills a session, ppgr_server exits 3 (batch degraded) and the
# postmortem bundle (wide event + fault report + audit report) must land
# in build/chaos_postmortems/ for the investigation.
chaos_postmortems() {
  echo "==== [chaos] archive postmortem bundles from a faulting run ===="
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" --target ppgr_server
  local dir="build/chaos_postmortems"
  mkdir -p "${dir}"
  local req="${dir}/crash_scenario.req"
  cat > "${req}" <<'EOF'
session 1
spec 4 2 8 4 8
k 1
criterion 35 120 0 0
weights 10 5 2 1
participant 34 118 90 55
participant 52 160 20 90
participant 35 121 40 40
fault-plan seed=7,crash=2@1
EOF
  local status=0
  ./build/examples/ppgr_server "${req}" --audit \
      --postmortem-dir "${dir}" \
      --session-log-out "${dir}/sessions.jsonl" || status=$?
  if [[ "${status}" -ne 3 ]]; then
    echo "chaos_postmortems: expected exit 3 (batch degraded), got ${status}" >&2
    exit 1
  fi
  if [[ ! -s "${dir}/session-1.postmortem.json" ]]; then
    echo "chaos_postmortems: postmortem bundle did not land in ${dir}" >&2
    exit 1
  fi
  if ! grep -q '"ppgr.fault.v1"' "${dir}/session-1.postmortem.json"; then
    echo "chaos_postmortems: bundle lacks the ppgr.fault.v1 report" >&2
    exit 1
  fi
  echo "chaos postmortem bundles archived in ${dir}/"
}

case "${MODE}" in
  plain) run_leg default ;;
  asan) run_leg asan ;;
  # The full suite takes a while under TSan's instrumentation; the threaded
  # tests are the ones TSan exists for, so the tsan leg runs those. Every
  # in-process run schedules n+1 party coroutines with one baton while
  # their fan-outs run on the pool: baton_test pins the scheduler, and the
  # framework suites (core_framework, chaos, framework_property,
  # parallel_determinism, metrics_export) drive it end to end;
  # phase2_oracle's split-hop test runs the hop's draw, ladder-chunk and
  # permutation tasks on pools of 1, 3 and 4 threads. Pass extra ctest args
  # (e.g. -R '.') to widen.
  tsan) run_leg tsan -R 'baton|parallel_determinism|runtime_pool|framework_property|metrics_export|core_framework|chaos|phase2_oracle' ;;
  engine) run_leg tsan -R 'engine' ;;
  metrics) run_leg asan -R 'runtime_metrics|metrics_export|model_validation|comm_validation|net_test|tcp_transport|^fault_test$' ;;
  chaos)
    run_leg asan -R '^fault_test$|chaos_test|wire_test|security_test'
    run_leg tsan -R 'engine_fault'
    chaos_postmortems
    ;;
  multiexp)
    run_leg asan -R 'multiexp|ec_exhaustive|batch_inverse|parallel_determinism|phase2_oracle|mpz_modular|group_test|wire_test|crypto_test|sss_shamir|sss_sort|sss_topk'
    ./build-asan/bench/micro_groupops \
        --benchmark_filter='ShuffleHopChunk|HopCodec|HopScalars|GroupExpMany|GroupDualExpMany|MontExpMany|MontDualExpMany|LaneProduct|FixedBaseExp|CompareCircuit' \
        --benchmark_min_time=0.01
    ;;
  telemetry) run_leg tsan -R 'telemetry|engine_fault' ;;
  flake) run_leg tsan -R 'telemetry|engine_fault|tcp_transport|runtime_pool' --repeat until-fail:20 ;;
  audit) run_leg asan -R 'audit_test|server_cli|cli_parse|benchcore|model_validation|comm_validation' ;;
  sockets)
    run_leg asan -R 'tcp_transport|party_launcher'
    run_leg tsan -R 'tcp_transport'
    ;;
  bench-regress) bench_regress ;;
  perfbench) perfbench_smoke ;;
  all)
    run_leg default
    run_leg asan
    run_leg tsan -R 'baton|parallel_determinism|runtime_pool|framework_property|metrics_export|core_framework|chaos|phase2_oracle'
    run_leg tsan -R 'engine'
    run_leg tsan -R 'telemetry|engine_fault'
    run_leg tsan -R 'tcp_transport'
    run_leg tsan -R 'telemetry|engine_fault|tcp_transport|runtime_pool' --repeat until-fail:20
    bench_regress
    perfbench_smoke
    ;;
  *)
    echo "usage: $0 [plain|asan|tsan|engine|metrics|chaos|multiexp|telemetry|flake|audit|sockets|bench-regress|perfbench|all]" >&2
    exit 2
    ;;
esac
echo "==== ci.sh: all requested legs green ===="
