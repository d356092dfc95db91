// Live-telemetry layer: the runtime primitives (ProgressCell, quantiles,
// OpenMetricsBuilder, TelemetrySampler) and the engine introspection built on
// them (snapshot / watchdog / exposition / trace stitching).
//
// The two load-bearing claims, per the determinism contract:
//
//   * NON-PERTURBATION — a sampler thread and a snapshot-hammering thread
//     running concurrently with a 16-driver engine leave the deterministic
//     rollup BYTE-IDENTICAL to tests/golden/engine_small.json (the same
//     golden engine_test pins without telemetry attached);
//   * COHERENCE UNDER RACE — snapshots taken while drivers claim work, run
//     protocols and land results are internally consistent (counts never
//     exceed the batch, completed is monotone) and data-race-free (this
//     suite runs under TSan via `scripts/ci.sh telemetry`).
//
// The OpenMetrics exposition is additionally validated by the spec checker
// scripts/check_openmetrics.py (skipped when python3 is unavailable).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/introspect.h"

#ifndef PPGR_GOLDEN_DIR
#define PPGR_GOLDEN_DIR "tests/golden"
#endif
#ifndef PPGR_SCRIPTS_DIR
#define PPGR_SCRIPTS_DIR "scripts"
#endif

namespace ppgr::engine {
namespace {

using core::AttrVec;
using core::ProblemSpec;
using mpz::ChaChaRng;
using runtime::HealthState;
using runtime::LatencyHistogram;
using runtime::OpenMetricsBuilder;
using runtime::Phase;
using runtime::ProgressCell;
using runtime::TelemetrySample;
using runtime::TelemetrySampler;

// Same construction as engine_test.cpp: inputs are a pure function of
// (session_id, input_seed) so the golden-rollup batch is reproduced exactly.
RankingRequest make_request(std::uint64_t sid, std::size_t n, std::size_t k,
                            FrameworkKind kind = FrameworkKind::kHe,
                            std::uint64_t input_seed = 99) {
  RankingRequest req;
  req.session_id = sid;
  req.framework = kind;
  req.spec = ProblemSpec{.m = 3, .t = 1, .d1 = 6, .d2 = 4, .h = 5};
  req.k = k;
  ChaChaRng rng{input_seed + sid};
  req.v0.resize(req.spec.m);
  req.w.resize(req.spec.m);
  for (auto& x : req.v0) x = rng.below_u64(std::uint64_t{1} << req.spec.d1);
  for (auto& x : req.w) x = rng.below_u64(std::uint64_t{1} << req.spec.d2);
  for (std::size_t j = 0; j < n; ++j) {
    AttrVec v(req.spec.m);
    for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << req.spec.d1);
    req.infos.push_back(std::move(v));
  }
  return req;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + "ppgr_telemetry_" +
         std::to_string(::getpid()) + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Runtime primitives.

TEST(TelemetryPrimitives, HealthSeverityOrder) {
  EXPECT_EQ(worse(HealthState::kOk, HealthState::kOk), HealthState::kOk);
  EXPECT_EQ(worse(HealthState::kOk, HealthState::kDegraded),
            HealthState::kDegraded);
  EXPECT_EQ(worse(HealthState::kStalled, HealthState::kDegraded),
            HealthState::kStalled);
  EXPECT_STREQ(to_string(HealthState::kOk), "ok");
  EXPECT_STREQ(to_string(HealthState::kDegraded), "degraded");
  EXPECT_STREQ(to_string(HealthState::kStalled), "stalled");
}

TEST(TelemetryPrimitives, ProgressCellRoundTripsPhaseAndRound) {
  ProgressCell cell;
  auto v = cell.view();
  EXPECT_EQ(v.phase, Phase::kSetup);
  EXPECT_EQ(v.round, 0u);
  EXPECT_GT(v.last_advance_s, 0.0);  // stamped at construction

  cell.advance(Phase::kPhase2, 41);
  v = cell.view();
  EXPECT_EQ(v.phase, Phase::kPhase2);
  EXPECT_EQ(v.round, 41u);

  // Round survives the 56-bit packing at a large index.
  const std::size_t big = (std::size_t{1} << 40) + 7;
  cell.advance(Phase::kPhase3, big);
  v = cell.view();
  EXPECT_EQ(v.phase, Phase::kPhase3);
  EXPECT_EQ(v.round, big);
}

TEST(TelemetryPrimitives, LatencyQuantileNearestRank) {
  LatencyHistogram hist;
  EXPECT_EQ(latency_quantile_seconds(hist, 0.5), 0.0);  // empty

  // 4 fast samples + 1 slow: p50 lands in the fast binade, p99 (rank 5 of 5)
  // in the slow one. Estimates are bin upper bounds — at most one binade
  // above the true value.
  for (int i = 0; i < 4; ++i) hist.add_seconds(1e-6);
  hist.add_seconds(0.5);
  const double p50 = latency_quantile_seconds(hist, 0.5);
  const double p99 = latency_quantile_seconds(hist, 0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 4e-6);
  EXPECT_GE(p99, 0.5);
  EXPECT_LE(p99, 2.0);
  EXPECT_LE(p50, p99);
}

TEST(TelemetryPrimitives, OpenMetricsBuilderRendersFamiliesAndEof) {
  OpenMetricsBuilder om;
  om.family("ppgr_demo_sessions", "gauge", "Sessions by state");
  om.sample("ppgr_demo_sessions", "state=\"queued\"", std::uint64_t{3});
  om.sample("ppgr_demo_sessions", "state=\"running\"", std::uint64_t{2});
  LatencyHistogram hist;
  hist.add_seconds(1e-6);
  hist.add_seconds(1e-3);
  om.family("ppgr_demo_wait_seconds", "histogram", "Queue wait");
  om.histogram("ppgr_demo_wait_seconds", "kind=\"he\"", hist);
  const std::string page = om.render();

  EXPECT_NE(page.find("# TYPE ppgr_demo_sessions gauge\n"),
            std::string::npos);
  EXPECT_NE(page.find("# HELP ppgr_demo_sessions Sessions by state\n"),
            std::string::npos);
  EXPECT_NE(page.find("ppgr_demo_sessions{state=\"queued\"} 3\n"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE ppgr_demo_wait_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(page.find("ppgr_demo_wait_seconds_bucket{kind=\"he\",le=\"+Inf\"}"
                      " 2\n"),
            std::string::npos);
  EXPECT_NE(page.find("ppgr_demo_wait_seconds_count{kind=\"he\"} 2\n"),
            std::string::npos);
  EXPECT_TRUE(ends_with(page, "# EOF\n")) << page;
  // Exactly one EOF, at the very end.
  EXPECT_EQ(page.find("# EOF\n"), page.size() - 6);
}

TEST(TelemetrySamplerTest, PeriodicSamplesPlusFinalOnStop) {
  const std::string jsonl = temp_path("sampler.jsonl");
  const std::string om = temp_path("sampler.om");
  std::remove(jsonl.c_str());

  std::atomic<std::uint64_t> produced{0};
  TelemetrySampler sampler{
      TelemetrySampler::Config{/*period_s=*/0.005, jsonl, om}, [&] {
        const auto n = produced.fetch_add(1) + 1;
        TelemetrySample s;
        s.jsonl = "{\"n\": " + std::to_string(n) + "}";
        s.openmetrics = "# TYPE demo_n gauge\ndemo_n " + std::to_string(n) +
                        "\n# EOF\n";
        return s;
      }};
  sampler.start();
  EXPECT_THROW(sampler.start(), std::logic_error);  // double-start rejected
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  sampler.stop();
  sampler.stop();  // idempotent

  const std::uint64_t taken = sampler.samples();
  EXPECT_GE(taken, 1u);  // at least the final stop() sample
  EXPECT_EQ(taken, produced.load());

  // One JSONL line per sample, in order.
  std::ifstream in{jsonl};
  ASSERT_TRUE(in);
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line, "{\"n\": " + std::to_string(lines) + "}");
  }
  EXPECT_EQ(lines, taken);

  // The exposition file holds the FINAL sample, atomically replaced.
  const std::string page = slurp(om);
  EXPECT_EQ(page,
            "# TYPE demo_n gauge\ndemo_n " + std::to_string(taken) +
                "\n# EOF\n");
  std::remove(jsonl.c_str());
  std::remove(om.c_str());
}

TEST(TelemetrySamplerTest, FailsFastOnUnwritablePath) {
  TelemetrySampler sampler{
      TelemetrySampler::Config{0.1,
                               "/nonexistent-ppgr-dir/telemetry.jsonl", ""},
      [] { return TelemetrySample{}; }};
  EXPECT_THROW(sampler.start(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Engine introspection.

// TSan target (scripts/ci.sh telemetry leg): a sampler thread and a
// snapshot-hammering thread observe a 16-driver engine while it claims,
// executes and lands 16 sessions. Snapshots must be coherent throughout and
// the terminal snapshot must account for every session.
TEST(EngineTelemetry, ConcurrentSnapshotsUnderSixteenDrivers) {
  const std::size_t kSessions = 16;
  PrecomputeCache cache;
  EngineConfig cfg;
  cfg.seed = 7;
  cfg.max_in_flight = kSessions;  // 16 driver threads
  cfg.cache = &cache;
  SessionEngine engine{cfg};

  const std::string jsonl = temp_path("engine.jsonl");
  const std::string om = temp_path("engine.om");
  std::remove(jsonl.c_str());
  EngineSampler sampler{engine,
                        EngineSampler::Config{/*period_s=*/0.001,
                                              /*stall_deadline_s=*/60.0,
                                              jsonl, om}};
  sampler.start();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> observations{0};
  std::thread watcher{[&] {
    std::size_t last_completed = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const EngineSnapshot s = snapshot(engine, 60.0);
      observations.fetch_add(1, std::memory_order_relaxed);
      EXPECT_LE(s.queued + s.in_flight + s.completed, kSessions);
      EXPECT_LE(s.sessions.size(), s.in_flight);
      EXPECT_GE(s.completed, last_completed);  // completion is monotone
      last_completed = s.completed;
      for (const SessionTelemetry& t : s.sessions) {
        EXPECT_GE(t.id, 1u);
        EXPECT_LE(t.id, kSessions);
        EXPECT_GE(t.running_for_s, 0.0);
        EXPECT_FALSE(t.stalled);  // 60 s deadline never trips here
      }
      // Exercise the renderers concurrently with the engine too.
      (void)s.to_jsonl();
      (void)s.to_openmetrics();
    }
  }};

  std::vector<RankingRequest> reqs;
  for (std::uint64_t sid = 1; sid <= kSessions; ++sid)
    reqs.push_back(make_request(sid, /*n=*/4, /*k=*/1,
                                sid % 4 == 0 ? FrameworkKind::kSs
                                             : FrameworkKind::kHe));
  const auto results = engine.run_batch(std::move(reqs));
  done.store(true, std::memory_order_relaxed);
  watcher.join();
  sampler.stop();

  ASSERT_EQ(results.size(), kSessions);
  for (const auto& r : results) EXPECT_EQ(r.outcome, SessionOutcome::kOk);
  EXPECT_GE(observations.load(), 1u);
  EXPECT_GE(sampler.samples(), 1u);

  // Terminal snapshot: drained, healthy, everything accounted for.
  const EngineSnapshot end = snapshot(engine, 60.0);
  EXPECT_EQ(end.queued, 0u);
  EXPECT_EQ(end.in_flight, 0u);
  EXPECT_EQ(end.completed, kSessions);
  EXPECT_EQ(end.faulted, 0u);
  EXPECT_EQ(end.health, HealthState::kOk);
  EXPECT_TRUE(end.sessions.empty());
  EXPECT_EQ(end.latency[0].run_duration.count() +
                end.latency[1].run_duration.count(),
            kSessions);
  EXPECT_EQ(end.latency[0].queue_wait.count() +
                end.latency[1].queue_wait.count(),
            kSessions);

  // Every JSONL line is a schema-tagged single-line object.
  std::ifstream in{jsonl};
  ASSERT_TRUE(in);
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.rfind("{\"schema\": \"ppgr.telemetry.v1\"", 0), 0u)
        << line;
    EXPECT_TRUE(ends_with(line, "}")) << line;
  }
  EXPECT_EQ(lines, sampler.samples());
  std::remove(jsonl.c_str());
  std::remove(om.c_str());
}

// The tentpole invariant: telemetry attached (sampler + snapshot hammering)
// must not perturb the deterministic rollup — byte-identical to the same
// golden engine_test pins for a telemetry-free engine. No PPGR_UPDATE_GOLDEN
// path here on purpose: engine_test owns the golden; this test only asserts
// that observation does not change it.
TEST(EngineTelemetry, RollupStaysGoldenUnderConcurrentObservation) {
  PrecomputeCache cache;
  EngineConfig cfg;
  cfg.seed = 2025;
  cfg.max_in_flight = 3;
  cfg.parallelism = 2;
  cfg.cache = &cache;
  SessionEngine engine{cfg};

  const std::string om = temp_path("golden.om");
  EngineSampler sampler{engine, EngineSampler::Config{0.001, 60.0, "", om}};
  sampler.start();
  std::atomic<bool> done{false};
  std::thread watcher{[&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)snapshot(engine, 60.0).to_jsonl();
    }
  }};

  std::vector<RankingRequest> reqs;
  reqs.push_back(make_request(1, /*n=*/5, /*k=*/2));
  reqs.push_back(make_request(2, /*n=*/4, /*k=*/1));
  reqs.push_back(make_request(3, /*n=*/5, /*k=*/2, FrameworkKind::kSs));
  (void)engine.run_batch(std::move(reqs));
  done.store(true, std::memory_order_relaxed);
  watcher.join();
  sampler.stop();
  std::remove(om.c_str());

  const std::string golden_path =
      std::string{PPGR_GOLDEN_DIR} + "/engine_small.json";
  std::ifstream in{golden_path};
  ASSERT_TRUE(in) << "missing golden " << golden_path
                  << " (regenerate via engine_test with PPGR_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(engine.rollup_json(), expected.str())
      << "live telemetry perturbed the deterministic rollup";
}

// EngineConfig::telemetry gates the rollup's nondeterministic sections: off
// (the default, pinned by the golden) emits neither; on emits per-kind
// latency quantiles and the health verdict.
TEST(EngineTelemetry, RollupLatencyAndHealthAreGatedByConfig) {
  auto rollup_with = [](bool telemetry) {
    PrecomputeCache cache;
    EngineConfig cfg;
    cfg.seed = 11;
    cfg.max_in_flight = 2;
    cfg.cache = &cache;
    cfg.telemetry = telemetry;
    SessionEngine engine{cfg};
    std::vector<RankingRequest> reqs;
    reqs.push_back(make_request(1, /*n=*/4, /*k=*/1));
    reqs.push_back(make_request(2, /*n=*/4, /*k=*/1, FrameworkKind::kSs));
    (void)engine.run_batch(std::move(reqs));
    return engine.rollup_json();
  };

  const std::string off = rollup_with(false);
  EXPECT_EQ(off.find("\"latency\""), std::string::npos) << off;
  EXPECT_EQ(off.find("\"health\""), std::string::npos) << off;

  const std::string on = rollup_with(true);
  EXPECT_NE(on.find("\"latency\""), std::string::npos) << on;
  EXPECT_NE(on.find("\"queue_wait_p50_seconds\""), std::string::npos) << on;
  EXPECT_NE(on.find("\"run_duration_p99_seconds\""), std::string::npos) << on;
  EXPECT_NE(on.find("\"health\": {\"state\": \"ok\", \"stalls\": 0}"),
            std::string::npos)
      << on;
}

// The exposition page of a mid-load engine passes the OpenMetrics spec
// checker (contiguous families, cumulative buckets, single EOF, ...).
TEST(EngineTelemetry, OpenMetricsPagePassesSpecChecker) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 unavailable";

  PrecomputeCache cache;
  EngineConfig cfg;
  cfg.seed = 23;
  cfg.max_in_flight = 4;
  cfg.cache = &cache;
  SessionEngine engine{cfg};
  for (std::uint64_t sid = 1; sid <= 6; ++sid)
    engine.submit(make_request(sid, /*n=*/4, /*k=*/1,
                               sid % 2 == 0 ? FrameworkKind::kSs
                                            : FrameworkKind::kHe));

  // One page mid-load (live per-session gauges present) and one drained
  // (histograms populated); both must validate.
  const std::string mid = snapshot(engine, 60.0).to_openmetrics();
  engine.drain();
  for (std::uint64_t sid = 1; sid <= 6; ++sid) (void)engine.take(sid);
  const std::string end = snapshot(engine, 60.0).to_openmetrics();

  const std::string path = temp_path("check.om");
  for (const std::string* page : {&mid, &end}) {
    std::ofstream out{path};
    ASSERT_TRUE(out);
    out << *page;
    out.close();
    const std::string cmd = std::string{"python3 "} + PPGR_SCRIPTS_DIR +
                            "/check_openmetrics.py " + path +
                            " > /dev/null 2>&1";
    EXPECT_EQ(std::system(cmd.c_str()), 0)
        << "check_openmetrics.py rejected:\n"
        << *page;
  }
  std::remove(path.c_str());
}

// Trace stitching: per-session span streams merge onto one timeline with
// pid = session id and named party lanes; timestamps are non-negative
// microseconds relative to the earliest event across ALL sessions.
TEST(EngineTelemetry, StitchedTraceMergesSessionTimelines) {
  PrecomputeCache cache;
  EngineConfig cfg;
  cfg.seed = 31;
  cfg.max_in_flight = 2;
  cfg.cache = &cache;
  SessionEngine engine{cfg};
  std::vector<RankingRequest> reqs;
  reqs.push_back(make_request(1, /*n=*/4, /*k=*/1));
  reqs.push_back(make_request(2, /*n=*/4, /*k=*/1, FrameworkKind::kSs));
  const auto results = engine.run_batch(std::move(reqs));
  ASSERT_EQ(results.size(), 2u);

  std::vector<const SessionResult*> ptrs;
  for (const auto& r : results) ptrs.push_back(&r);
  const std::string trace = stitched_trace_json(ptrs);

  // Both sessions appear as named process groups with party lanes.
  EXPECT_NE(trace.find("\"name\": \"session 1 (he)\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"session 2 (ss)\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"orchestrator\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"P0\""), std::string::npos);
  EXPECT_NE(trace.find("\"pid\": 1,"), std::string::npos);
  EXPECT_NE(trace.find("\"pid\": 2,"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_EQ(trace.find("\"ts\": -"), std::string::npos);  // shared origin
  // A null entry (e.g. a faulted session with no spans) is skipped, not a
  // crash.
  std::vector<const SessionResult*> with_null{&results[0], nullptr};
  EXPECT_NE(stitched_trace_json(with_null).find("session 1"),
            std::string::npos);
}

// Drained-engine health on the ppgr.telemetry.v1 line: the verdict, the
// counts and no live sessions.
TEST(EngineTelemetry, TelemetryLineReflectsDrainedEngine) {
  PrecomputeCache cache;
  EngineConfig cfg;
  cfg.seed = 3;
  cfg.cache = &cache;
  SessionEngine engine{cfg};
  std::vector<RankingRequest> reqs;
  reqs.push_back(make_request(1, /*n=*/4, /*k=*/1));
  (void)engine.run_batch(std::move(reqs));

  const std::string doc = snapshot(engine, 60.0).to_jsonl();
  EXPECT_NE(doc.find("\"schema\": \"ppgr.telemetry.v1\""),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"health\": \"ok\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"completed\": 1"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"audit_drift\": 0"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"sessions\": []"), std::string::npos) << doc;
}

}  // namespace
}  // namespace ppgr::engine
