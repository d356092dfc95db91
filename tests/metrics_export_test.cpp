// Golden-file tests for the observability exporters: a fixed-seed framework
// run must produce byte-identical deterministic metrics JSON and Chrome
// trace JSON at parallelism 1, 2 and hardware concurrency, and those bytes
// must match the checked-in goldens (tests/golden/). A diff here means the
// exporter format, the instrumentation coverage or the protocol's operation
// sequence changed — all of which should be deliberate, reviewed changes.
//
// The ExportPins cases render every other export from hand-built inputs:
// the fault report (a fixed plan on a Router), the audit report, the
// session log and postmortem bundle, the telemetry line and OpenMetrics
// page, the stitched and wall-clock span traces, the timed metrics JSON and
// the phase_report text.
//
// Regenerate the goldens after a deliberate change with:
//   PPGR_UPDATE_GOLDEN=1 ./build/tests/metrics_export_test
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.h"
#include "engine/audit.h"
#include "engine/engine.h"
#include "engine/introspect.h"
#include "engine/session_log.h"
#include "golden.h"
#include "net/channel.h"
#include "net/fault.h"
#include "runtime/comm.h"
#include "runtime/metrics.h"
#include "runtime/span.h"

namespace ppgr::core {
namespace {

using ppgr::testing::check_golden;
using group::GroupId;
using group::make_group;
using mpz::ChaChaRng;

FrameworkResult run_at(std::size_t parallelism) {
  const auto g = make_group(GroupId::kDlTest256);
  FrameworkConfig cfg;
  cfg.spec = ProblemSpec{.m = 3, .t = 1, .d1 = 6, .d2 = 4, .h = 5};
  cfg.n = 5;
  cfg.k = 2;
  cfg.group = g.get();
  cfg.dot_field = &default_dot_field();
  cfg.parallelism = parallelism;
  cfg.metrics = true;

  ChaChaRng rng{2024};
  AttrVec v0(cfg.spec.m), w(cfg.spec.m);
  for (auto& x : v0) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d1);
  for (auto& x : w) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d2);
  std::vector<AttrVec> infos;
  for (std::size_t j = 0; j < cfg.n; ++j) {
    AttrVec v(cfg.spec.m);
    for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d1);
    infos.push_back(std::move(v));
  }
  return run_framework(cfg, v0, w, infos, rng);
}

TEST(MetricsExport, DeterministicJsonBitIdenticalAcrossParallelism) {
  const auto serial = run_at(1);
  ASSERT_NE(serial.metrics, nullptr);
  ASSERT_NE(serial.spans, nullptr);
  ASSERT_NE(serial.comm, nullptr);
  const std::string metrics_json =
      serial.metrics->to_json(/*include_timing=*/false);
  const std::string trace_json =
      serial.spans->chrome_trace_json(/*deterministic=*/true);
  const std::string comm_json = serial.comm->to_json();
  const std::string comm_trace_json = serial.comm->chrome_trace_json();

  const auto two = run_at(2);
  EXPECT_EQ(metrics_json, two.metrics->to_json(false));
  EXPECT_EQ(trace_json, two.spans->chrome_trace_json(true));
  EXPECT_EQ(comm_json, two.comm->to_json());
  EXPECT_EQ(comm_trace_json, two.comm->chrome_trace_json());

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;
  const auto many = run_at(hw);
  EXPECT_EQ(metrics_json, many.metrics->to_json(false));
  EXPECT_EQ(trace_json, many.spans->chrome_trace_json(true));
  EXPECT_EQ(comm_json, many.comm->to_json());
  EXPECT_EQ(comm_trace_json, many.comm->chrome_trace_json());
}

TEST(MetricsExport, MetricsJsonMatchesGolden) {
  const auto result = run_at(1);
  check_golden("metrics_small.json",
               result.metrics->to_json(/*include_timing=*/false));
}

TEST(MetricsExport, ChromeTraceMatchesGolden) {
  const auto result = run_at(1);
  check_golden("trace_small.json",
               result.spans->chrome_trace_json(/*deterministic=*/true));
}

TEST(MetricsExport, CommJsonMatchesGolden) {
  const auto result = run_at(1);
  check_golden("comm_small.json", result.comm->to_json());
}

TEST(MetricsExport, CommChromeTraceMatchesGolden) {
  const auto result = run_at(1);
  check_golden("comm_trace_small.json", result.comm->chrome_trace_json());
}

TEST(MetricsExport, DisabledByDefault) {
  // cfg.metrics defaults to false: no registries allocated, no counts.
  const auto g = make_group(GroupId::kDlTest256);
  FrameworkConfig cfg;
  cfg.spec = ProblemSpec{.m = 3, .t = 1, .d1 = 6, .d2 = 4, .h = 5};
  cfg.n = 3;
  cfg.k = 1;
  cfg.group = g.get();
  cfg.dot_field = &default_dot_field();
  ChaChaRng rng{7};
  const std::vector<AttrVec> infos{{1, 2, 3}, {9, 4, 2}, {5, 6, 1}};
  const auto result = run_framework(cfg, {0, 0, 0}, {1, 1, 1}, infos, rng);
  EXPECT_EQ(result.metrics, nullptr);
  EXPECT_EQ(result.spans, nullptr);
  EXPECT_EQ(result.comm, nullptr);
  // The replayable byte-trace pillar stays on regardless.
  EXPECT_GT(result.trace.total_bytes(), 0u);
}

}  // namespace
}  // namespace ppgr::core

// Pins over hand-built inputs: every remaining export rendered from fixed
// values, so each golden is a pure function of its renderer.
namespace ppgr::engine {
namespace {

using ppgr::testing::check_golden;
using runtime::CryptoOp;
using runtime::Phase;

// A fixed plan on a three-party Router: drops, corruption, duplicates and
// reordering healed by retransmission, plus a crash point that never fires.
net::FaultReport router_fault_report() {
  const net::FaultPlan plan{net::parse_fault_plan(
      "seed=11,drop=0.3,corrupt=0.2,duplicate=0.2,reorder=0.2,retries=8,"
      "crash=2@3")};
  runtime::TraceRecorder trace;
  net::Router::Config rcfg;
  rcfg.faults = &plan;
  net::Router router{3, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  for (int i = 0; i < 6; ++i) {
    router.send(0, 1, std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)});
    router.send(1, 2, std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)});
  }
  for (int i = 0; i < 6; ++i) {
    (void)router.receive(0, 1);
    (void)router.receive(1, 2);
  }
  router.next_round();
  return router.fault_report();
}

std::shared_ptr<const AuditReport> drift_audit() {
  auto a = std::make_shared<AuditReport>();
  a->checkpoints = 4;
  a->checks = 37;
  a->findings.push_back(AuditFinding{
      .kind = AuditCheckKind::kComm,
      .phase = Phase::kPhase2,
      .key = "P1->P2 bytes",
      .expected = 4096,
      .measured = 4160,
      .detail = "per-link byte total diverges from the comm model"});
  return a;
}

std::unique_ptr<runtime::CommRegistry> small_comm() {
  std::vector<runtime::FlowRecord> flows;
  flows.push_back(
      {Phase::kPhase1, 0, 0, 1, 120, {0.0, 0.25, 0.125, 0.0625, 0.0625}});
  flows.push_back(
      {Phase::kPhase1, 0, 2, 1, 96, {0.0, 0.5, 0.25, 0.125, 0.125}});
  flows.push_back(
      {Phase::kPhase2, 1, 1, 2, 4096, {0.5, 1.5, 0.75, 0.125, 0.125}});
  // A round that was never closed: zero timing, and a phase without
  // virtual seconds.
  flows.push_back({Phase::kPhase3, 2, 3, 0, 64, {}});
  return std::make_unique<runtime::CommRegistry>(
      std::move(flows), 3, 1.5,
      std::array<double, runtime::kPhaseCount>{0.0, 0.5, 1.0, 0.0});
}

// One completed HE session with registries and a clean audit, and one
// faulted session (no registries, a fault report and a drifted audit).
std::vector<SessionResult> hand_built_results() {
  std::vector<SessionResult> out(2);
  SessionResult& ok = out[0];
  ok.id = 6;
  ok.framework = FrameworkKind::kHe;
  ok.group = group::GroupId::kDlTest256;
  ok.n = 4;
  ok.k = 2;
  ok.he.ranks = {2, 1, 4, 3};
  ok.he.submitted_ids = {1, 2};
  ok.he.trace.record(Phase::kPhase1, 0, 1, 120);
  ok.he.trace.next_round();
  ok.he.trace.record(Phase::kPhase2, 1, 2, 4096);
  ok.he.trace.next_round();
  ok.he.metrics = std::make_unique<runtime::MetricsRegistry>();
  ok.he.metrics->add(Phase::kPhase1, 0, CryptoOp::kDotprodQuery, 4);
  ok.he.metrics->add(Phase::kPhase2, 1, CryptoOp::kGroupExp, 1234);
  ok.he.metrics->add(Phase::kPhase2, 2, CryptoOp::kShuffleHop, 3);
  ok.he.comm = small_comm();
  ok.wall_seconds = 0.25;
  ok.setup_seconds = 0.001953125;
  ok.precompute.generator_table = {1, 0};
  auto clean = std::make_shared<AuditReport>();
  clean->checkpoints = 5;
  clean->checks = 42;
  ok.audit = clean;

  SessionResult& bad = out[1];
  bad.id = 7;
  bad.framework = FrameworkKind::kHe;
  bad.group = group::GroupId::kDlTest256;
  bad.n = 4;
  bad.k = 2;
  bad.wall_seconds = 0.125;
  bad.setup_seconds = 0.0;
  bad.precompute.generator_table = {0, 1};
  bad.outcome = SessionOutcome::kFault;
  bad.fault = core::FaultInfo{.phase = Phase::kPhase2,
                              .round = 5,
                              .party = 2,
                              .cause = "party 2 \"crashed\"\n\tat hop 1"};
  bad.fault_what = "session 7: party 2 crashed";
  bad.fault_report = router_fault_report();
  bad.audit = drift_audit();
  return out;
}

TEST(ExportPins, FaultReportMatchesGolden) {
  check_golden("fault_small.json", router_fault_report().to_json());
}

TEST(ExportPins, AuditReportMatchesGolden) {
  check_golden("audit_small.json", drift_audit()->to_json());
}

TEST(ExportPins, SessionLogAndPostmortemMatchGolden) {
  const std::vector<SessionResult> results = hand_built_results();
  std::string lines;
  for (const SessionResult& r : results)
    lines += session_wide_event_json(r) + "\n";
  check_golden("session_small.jsonl", lines);
  check_golden("postmortem_small.json", postmortem_json(results[1], ""));
}

TEST(ExportPins, SnapshotJsonlAndOpenMetricsMatchGolden) {
  EngineSnapshot s;
  s.uptime_s = 12.5;
  s.stall_deadline_s = 5.0;
  s.queued = 2;
  s.in_flight = 1;
  s.completed = 7;
  s.faulted = 1;
  s.audit_drift = 1;
  s.cache_hits = 6;
  s.cache_misses = 2;
  s.stalls_total = 3;
  s.health = runtime::HealthState::kStalled;
  for (const double w : {0.001, 0.002, 0.004})
    s.latency[0].queue_wait.add_seconds(w);
  for (const double r : {0.125, 0.25, 0.5})
    s.latency[0].run_duration.add_seconds(r);
  s.latency[1].queue_wait.add_seconds(0.0005);
  s.latency[1].run_duration.add_seconds(1.5);
  s.sessions.push_back(SessionTelemetry{.id = 9,
                                        .framework = FrameworkKind::kSs,
                                        .n = 5,
                                        .k = 2,
                                        .phase = Phase::kPhase2,
                                        .round = 14,
                                        .queued_for_s = 0.25,
                                        .running_for_s = 3.5,
                                        .since_advance_s = 6.0,
                                        .stalled = true,
                                        .stalls = 2});
  check_golden("snapshot_small.jsonl", s.to_jsonl() + "\n");
  check_golden("snapshot_small.om", s.to_openmetrics());
}

std::unique_ptr<runtime::SpanRecorder> fixed_spans(double t0,
                                                   std::int32_t parties) {
  auto spans = std::make_unique<runtime::SpanRecorder>();
  const auto ev = [&](bool begin, Phase phase, std::int32_t party,
                      const char* name, std::uint64_t index, double t) {
    spans->push(runtime::SpanEvent{.begin = begin,
                                   .phase = phase,
                                   .party = party,
                                   .name = name,
                                   .index = index,
                                   .t_wall = t});
  };
  ev(true, Phase::kSetup, runtime::kOrchestratorParty, "run", 0, t0);
  ev(true, Phase::kPhase1, runtime::kOrchestratorParty, "phase1", 0, t0 + 0.25);
  for (std::int32_t p = 0; p < parties; ++p) {
    ev(true, Phase::kPhase1, p, "dot_product", static_cast<std::uint64_t>(p),
       t0 + 0.25 + 0.125 * p);
    ev(false, Phase::kPhase1, p, "dot_product", static_cast<std::uint64_t>(p),
       t0 + 0.375 + 0.125 * p);
  }
  ev(false, Phase::kPhase1, runtime::kOrchestratorParty, "phase1", 0, t0 + 1.0);
  ev(true, Phase::kPhase2, runtime::kOrchestratorParty, "phase2", 0, t0 + 1.0);
  ev(false, Phase::kPhase2, runtime::kOrchestratorParty, "phase2", 0, t0 + 3.5);
  ev(false, Phase::kSetup, runtime::kOrchestratorParty, "run", 0, t0 + 3.75);
  return spans;
}

TEST(ExportPins, StitchedTraceMatchesGolden) {
  std::vector<SessionResult> results(2);
  results[0].id = 1;
  results[0].framework = FrameworkKind::kHe;
  results[0].he.spans = fixed_spans(100.5, 2);
  results[1].id = 2;
  results[1].framework = FrameworkKind::kSs;
  results[1].ss.spans = fixed_spans(100.0, 3);
  check_golden("stitched_trace_small.json",
               stitched_trace_json({&results[0], nullptr, &results[1]}));
  check_golden("span_trace_timed_small.json",
               results[1].ss.spans->chrome_trace_json(/*deterministic=*/false));
}

TEST(ExportPins, PhaseReportMatchesGolden) {
  runtime::MetricsRegistry reg;
  runtime::MetricsBuffer buf;
  buf.set_context(Phase::kPhase1, 0);
  buf.add(CryptoOp::kGroupExp, 12);
  buf.add(CryptoOp::kElGamalEncrypt, 4);
  buf.add_latency(CryptoOp::kElGamalEncrypt, 0.000125);
  buf.add_latency(CryptoOp::kElGamalEncrypt, 0.00025);
  buf.set_context(Phase::kPhase2, 1);
  buf.add(CryptoOp::kGroupDualExp, 321);
  buf.add(CryptoOp::kCompareCircuit, 6);
  buf.add(CryptoOp::kShuffleHop, 2);
  buf.add(CryptoOp::kSchnorrVerify, 5);
  buf.add_latency(CryptoOp::kShuffleHop, 0.5);
  reg.absorb(buf);
  const auto spans = fixed_spans(10.0, 2);
  const auto comm = small_comm();
  check_golden("phase_report_small.txt",
               runtime::phase_report(reg, spans.get(), comm.get()) +
                   "----\n" + runtime::phase_report(reg, nullptr, nullptr));
  check_golden("metrics_timed_small.json",
               reg.to_json(/*include_timing=*/true));
}

}  // namespace
}  // namespace ppgr::engine
