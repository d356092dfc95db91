// Engine-level fault isolation: sessions killed by injected faults must
// surface as typed SessionResult failures while the engine keeps serving
// everything else. The load-bearing claims:
//
//   * a batch with crash-killed sessions completes every surviving session
//     BIT-IDENTICALLY to an engine that never saw the doomed sessions;
//   * the shared PrecomputeCache is not poisoned by faulted sessions — a
//     cache warmed under fault load produces the same results as a cold one
//     (multi-wave soak);
//   * the rollup reports per-outcome counts and the typed fault coordinates
//     for exactly the killed sessions — and a fault-free engine's rollup
//     stays byte-free of any fault vocabulary (golden compatibility).
//
// Runs under TSan via `scripts/ci.sh engine` / `scripts/ci.sh chaos`.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/introspect.h"

namespace ppgr::engine {
namespace {

using core::AttrVec;
using core::ProblemSpec;
using mpz::ChaChaRng;

RankingRequest make_request(std::uint64_t sid, std::size_t n, std::size_t k,
                            FrameworkKind kind = FrameworkKind::kHe,
                            std::uint64_t input_seed = 77) {
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

bool is_doomed(std::uint64_t sid, const std::vector<std::uint64_t>& doomed) {
  return std::find(doomed.begin(), doomed.end(), sid) != doomed.end();
}

void expect_bit_identical(const SessionResult& a, const SessionResult& b) {
  ASSERT_EQ(a.id, b.id);
  ASSERT_EQ(a.framework, b.framework);
  EXPECT_EQ(a.outcome, SessionOutcome::kOk);
  EXPECT_EQ(b.outcome, SessionOutcome::kOk);
  EXPECT_EQ(a.ranks(), b.ranks());
  EXPECT_EQ(a.submitted_ids(), b.submitted_ids());
  if (a.framework == FrameworkKind::kHe) {
    EXPECT_EQ(a.he.betas, b.he.betas);
  }
  const auto& ta = a.trace().transfers();
  const auto& tb = b.trace().transfers();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].round, tb[i].round) << "transfer " << i;
    EXPECT_EQ(ta[i].src, tb[i].src) << "transfer " << i;
    EXPECT_EQ(ta[i].dst, tb[i].dst) << "transfer " << i;
    EXPECT_EQ(ta[i].bytes, tb[i].bytes) << "transfer " << i;
  }
}

// 16 sessions, 4 of them killed by a scheduled participant crash in phase 2
// (past the degrade point, so each is unconditionally fatal). The other 12
// must come out bit-identical to a run that never contained the doomed four.
TEST(EngineFault, CrashedSessionsDoNotPerturbSurvivors) {
  const std::vector<std::uint64_t> doomed{3, 7, 11, 16};
  const std::size_t kSessions = 16;

  std::vector<RankingRequest> mixed, clean;
  for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
    const FrameworkKind kind =
        sid % 4 == 0 ? FrameworkKind::kSs : FrameworkKind::kHe;
    RankingRequest req = make_request(sid, /*n=*/5, /*k=*/2, kind);
    if (is_doomed(sid, doomed)) {
      req.fault_plan = net::parse_fault_plan("crash=2@2");
      req.fault_plan.seed = 100 + sid;
    } else {
      clean.push_back(req);
    }
    mixed.push_back(std::move(req));
  }

  PrecomputeCache cache_a, cache_b;
  EngineConfig cfg;
  cfg.seed = 41;
  cfg.max_in_flight = 4;

  cfg.cache = &cache_a;
  SessionEngine engine_a{cfg};
  const auto with_faults = engine_a.run_batch(std::move(mixed));

  cfg.cache = &cache_b;
  SessionEngine engine_b{cfg};
  const auto reference = engine_b.run_batch(std::move(clean));

  ASSERT_EQ(with_faults.size(), kSessions);
  ASSERT_EQ(reference.size(), kSessions - doomed.size());

  std::size_t ref_i = 0, faults_seen = 0;
  for (const SessionResult& res : with_faults) {
    if (is_doomed(res.id, doomed)) {
      ++faults_seen;
      EXPECT_EQ(res.outcome, SessionOutcome::kFault) << "session " << res.id;
      ASSERT_TRUE(res.fault.has_value()) << "session " << res.id;
      EXPECT_EQ(res.fault->phase, runtime::Phase::kPhase2)
          << "session " << res.id;
      // Satellite contract: every engine-level failure message names its
      // session.
      EXPECT_NE(res.fault_what.find("session " + std::to_string(res.id)),
                std::string::npos)
          << res.fault_what;
      EXPECT_TRUE(res.ranks().empty()) << "session " << res.id;
    } else {
      ASSERT_LT(ref_i, reference.size());
      expect_bit_identical(res, reference[ref_i]);
      ++ref_i;
    }
  }
  EXPECT_EQ(faults_seen, doomed.size());
  EXPECT_EQ(ref_i, reference.size());

  // Rollup: every engine reports per-outcome counts and each session's
  // outcome; only a faulted session carries the typed fault coordinates.
  const std::string rollup_a = engine_a.rollup_json();
  EXPECT_NE(rollup_a.find("\"outcomes\": {\"ok\": 12, \"fault\": 4}"),
            std::string::npos)
      << rollup_a;
  EXPECT_NE(rollup_a.find("\"outcome\": \"fault\""), std::string::npos);
  EXPECT_NE(rollup_a.find("\"phase\": \"phase2\""), std::string::npos);
  const std::string rollup_b = engine_b.rollup_json();
  EXPECT_NE(rollup_b.find("\"outcomes\": {\"ok\": 12, \"fault\": 0}"),
            std::string::npos)
      << rollup_b;
  EXPECT_NE(rollup_b.find("\"outcome\": \"ok\""), std::string::npos);
  EXPECT_EQ(rollup_b.find("\"outcome\": \"fault\""), std::string::npos);
  EXPECT_EQ(rollup_b.find("\"fault\": {"), std::string::npos) << rollup_b;
}

// Multi-wave soak on ONE shared cache: waves alternate fault-heavy and
// clean batches. Every clean wave must be bit-identical to the same batch
// run by a fresh engine on a fresh cache — i.e. fault-killed sessions never
// leave poisoned entries behind the shared precompute.
TEST(EngineFault, SharedCacheSurvivesFaultWavesUnpoisoned) {
  PrecomputeCache shared;
  EngineConfig cfg;
  cfg.seed = 17;
  cfg.max_in_flight = 3;

  for (int wave = 0; wave < 3; ++wave) {
    // Fault-heavy wave: half the sessions crash (phase 1, no degrade —
    // fatal), half complete and warm the shared cache.
    std::vector<RankingRequest> storm;
    for (std::uint64_t s = 1; s <= 6; ++s) {
      RankingRequest req =
          make_request(1000 * (wave + 1) + s, /*n=*/4, /*k=*/1);
      if (s % 2 == 0) {
        req.fault_plan = net::parse_fault_plan(
            "crash=1@1,drop=0.2,corrupt=0.1");
        req.fault_plan.seed = 7 * static_cast<std::uint64_t>(wave) + s;
      }
      storm.push_back(std::move(req));
    }
    cfg.cache = &shared;
    SessionEngine stormy{cfg};
    const auto storm_results = stormy.run_batch(std::move(storm));
    std::size_t storm_faults = 0;
    for (const auto& r : storm_results)
      storm_faults += r.outcome == SessionOutcome::kFault ? 1 : 0;
    EXPECT_EQ(storm_faults, 3u) << "wave " << wave;

    // Clean wave over the warmed shared cache vs a cold fresh cache.
    auto clean_batch = [&] {
      std::vector<RankingRequest> reqs;
      for (std::uint64_t s = 1; s <= 4; ++s)
        reqs.push_back(make_request(2000 * (wave + 1) + s, /*n=*/4, /*k=*/1,
                                    s == 4 ? FrameworkKind::kSs
                                           : FrameworkKind::kHe));
      return reqs;
    };
    cfg.cache = &shared;
    SessionEngine warm{cfg};
    const auto warm_results = warm.run_batch(clean_batch());

    PrecomputeCache cold_cache;
    cfg.cache = &cold_cache;
    SessionEngine cold{cfg};
    const auto cold_results = cold.run_batch(clean_batch());

    ASSERT_EQ(warm_results.size(), cold_results.size());
    for (std::size_t i = 0; i < warm_results.size(); ++i)
      expect_bit_identical(warm_results[i], cold_results[i]);
  }
}

// Satellite 2: typed EngineError messages name the offending session and
// the doomed field, so multi-session operators can attribute rejections.
TEST(EngineFault, RejectionMessagesNameTheSession) {
  EngineConfig cfg;
  cfg.seed = 5;
  SessionEngine engine{cfg};

  RankingRequest bad = make_request(31, /*n=*/4, /*k=*/1);
  bad.k = 99;  // k > n: invalid spec
  try {
    engine.submit(std::move(bad));
    FAIL() << "invalid request accepted";
  } catch (const EngineError& e) {
    EXPECT_NE(std::string(e.what()).find("session 31"), std::string::npos)
        << e.what();
  }

  RankingRequest dup1 = make_request(32, /*n=*/4, /*k=*/1);
  RankingRequest dup2 = make_request(32, /*n=*/4, /*k=*/1);
  engine.submit(std::move(dup1));
  try {
    engine.submit(std::move(dup2));
    FAIL() << "duplicate session accepted";
  } catch (const EngineError& e) {
    EXPECT_NE(std::string(e.what()).find("session 32"), std::string::npos)
        << e.what();
  }
  engine.drain();
}

// Watchdog end-to-end on a doomed session: while the crash-planned session
// is in flight, a zero-deadline snapshot must report it stalled (health
// kStalled, sticky stall counter bumped); once it dies, the engine reports
// the typed fault and the post-mortem snapshot degrades to kDegraded with
// the stall history preserved. Injected fault delays are *virtual* time, so
// the test uses the `stall_deadline_s <= 0` hook (flags any in-flight
// session) instead of waiting out a wall-clock deadline.
TEST(EngineFault, WatchdogReportsCrashSessionStalledThenFault) {
  // A doomed session is only a few milliseconds of real work before its
  // phase-2 crash. The on_progress seam holds it at its first phase-2
  // advance (the crash point activates right after it) until the observer
  // has taken its snapshot, so the observation never races the scheduler.
  std::mutex mu;
  std::condition_variable cv;
  bool held = false, released = false;
  const auto release = [&] {
    {
      const std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  };
  EngineConfig cfg;
  cfg.seed = 59;
  cfg.max_in_flight = 1;
  cfg.on_progress = [&](std::uint64_t, runtime::Phase phase, std::size_t) {
    if (phase != runtime::Phase::kPhase2) return;
    std::unique_lock<std::mutex> lock(mu);
    held = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  };
  SessionEngine engine{cfg};

  constexpr std::uint64_t kSid = 21;
  RankingRequest doomed = make_request(kSid, /*n=*/12, /*k=*/2);
  doomed.fault_plan = net::parse_fault_plan("crash=2@2");
  doomed.fault_plan.seed = 121;
  engine.submit(std::move(doomed));

  bool reached = false;
  {
    // Bounded only so that a session that never reaches phase 2 fails the
    // test instead of hanging it.
    std::unique_lock<std::mutex> lock(mu);
    reached = cv.wait_for(lock, std::chrono::minutes(2), [&] { return held; });
  }
  const EngineSnapshot s =
      reached ? snapshot(engine, /*stall_deadline_s=*/0.0) : EngineSnapshot{};
  release();
  ASSERT_TRUE(reached) << "the doomed session never reached phase 2";

  ASSERT_EQ(s.sessions.size(), 1u);
  const SessionTelemetry& t = s.sessions.front();
  EXPECT_EQ(t.id, kSid);
  EXPECT_TRUE(t.stalled);  // zero deadline flags any live session
  EXPECT_GE(t.stalls, 1u);
  EXPECT_EQ(s.health, runtime::HealthState::kStalled);
  EXPECT_GE(s.stalls_total, 1u);
  EXPECT_NE(s.to_jsonl().find("\"stalled\": true"), std::string::npos);
  EXPECT_NE(s.to_jsonl().find("{\"id\": " + std::to_string(kSid) + ","),
            std::string::npos);

  // Released, the doomed session surfaces as a typed fault.
  const SessionResult res = engine.take(kSid);
  EXPECT_EQ(res.outcome, SessionOutcome::kFault);
  ASSERT_TRUE(res.fault.has_value());
  EXPECT_EQ(res.fault->phase, runtime::Phase::kPhase2);

  // Post-mortem: nothing live, so no stall verdict — but the fault keeps
  // health degraded and the stall total is preserved.
  const EngineSnapshot after = snapshot(engine, /*stall_deadline_s=*/5.0);
  EXPECT_EQ(after.in_flight, 0u);
  EXPECT_EQ(after.completed, 1u);
  EXPECT_EQ(after.faulted, 1u);
  EXPECT_EQ(after.health, runtime::HealthState::kDegraded);
  EXPECT_GE(after.stalls_total, 1u);
}

}  // namespace
}  // namespace ppgr::engine
