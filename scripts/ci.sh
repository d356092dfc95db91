#!/usr/bin/env bash
# CI entry point: plain build + full ctest, then the same suite hardened
# under ASan+UBSan and TSan (CMake presets `asan` / `tsan`). The TSan leg is
# what proves the parallel execution engine race-free: it runs the baton
# scheduler, the framework suites and runtime_pool_test with real threads.
#
# The `metrics` mode is the focused observability leg: it runs the metrics
# unit tests, the golden exporter test, the model-vs-measured self-checks
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
# differential suite (Group::dual_exp's Straus ladders and the fixed-base
# tables vs naive Group::exp on every group family), the batched-inversion
# KATs, the parallel-determinism suite and the phase-2 oracle (the fused
# comparison circuit and chain hop vs the naive evaluation, value- and
# byte-identical on every group family) run under ASan+UBSan — index
# arithmetic over window digits and digit tables is exactly the surface
# ASan watches. The
# leg also runs the mpz_modular and group suites: the binary gcd / Jacobi /
# inverse kernels index fixed stack limb buffers at every width the GMP
# differential tests use (1 to 64 limbs).
#
# The `telemetry` mode is the live-observability leg: the telemetry suite
# (sampler lifecycle, concurrent snapshot-vs-absorb races, the telemetry-off
# golden non-perturbation invariant, OpenMetrics exposition validated by
# scripts/check_openmetrics.py from inside the test) plus the engine
# watchdog stalled->fault test run under TSan — samplers and watchdogs read
# engine state while sixteen driver threads mutate it, which is exactly the
# surface TSan exists for.
#
# The `audit` mode is the forensics/conformance leg: the conformance-audit
# suite (clean runs audit to zero findings, faulted/degraded/tampered runs
# to typed ones, postmortem atomicity and determinism), the ppgr_server
# exit-contract integration test and — because the audit's expectations
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
# Usage: scripts/ci.sh [plain|asan|tsan|engine|metrics|chaos|multiexp|telemetry|audit|sockets|bench-regress|all]
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
  # parallel_determinism, metrics_export) drive it end to end. Pass extra
  # ctest args (e.g. -R '.') to widen.
  tsan) run_leg tsan -R 'baton|parallel_determinism|runtime_pool|framework_property|metrics_export|core_framework|chaos' ;;
  engine) run_leg tsan -R 'engine' ;;
  metrics) run_leg asan -R 'runtime_metrics|metrics_export|model_validation|comm_validation|net_test|tcp_transport|^fault_test$' ;;
  chaos)
    run_leg asan -R '^fault_test$|chaos_test|wire_test|security_test'
    run_leg tsan -R 'engine_fault'
    chaos_postmortems
    ;;
  multiexp) run_leg asan -R 'multiexp|batch_inverse|parallel_determinism|phase2_oracle|mpz_modular|group_test' ;;
  telemetry) run_leg tsan -R 'telemetry|engine_fault' ;;
  audit) run_leg asan -R 'audit_test|server_cli|benchcore|model_validation|comm_validation' ;;
  sockets)
    run_leg asan -R 'tcp_transport|party_launcher'
    run_leg tsan -R 'tcp_transport'
    ;;
  bench-regress) bench_regress ;;
  all)
    run_leg default
    run_leg asan
    run_leg tsan -R 'baton|parallel_determinism|runtime_pool|framework_property|metrics_export|core_framework|chaos'
    run_leg tsan -R 'engine'
    run_leg tsan -R 'telemetry|engine_fault'
    run_leg tsan -R 'tcp_transport'
    bench_regress
    ;;
  *)
    echo "usage: $0 [plain|asan|tsan|engine|metrics|chaos|multiexp|telemetry|audit|sockets|bench-regress|all]" >&2
    exit 2
    ;;
esac
echo "==== ci.sh: all requested legs green ===="
