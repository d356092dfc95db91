// SessionEngine behavior: admission cap, session isolation, correctness vs
// the plain reference ranking, the same evaluation as a bare run_framework,
// determinism under load (bit-identical outputs at load 1 vs 16, cold vs
// warm cache), exact cold/warm cache hit accounting, and the golden rollup
// export (tests/golden/engine_small.json) byte-stable across parallelism
// 1 / 2 / hardware concurrency.
//
// Regenerate the golden after a deliberate format change with:
//   PPGR_UPDATE_GOLDEN=1 ./build/tests/engine_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/precompute.h"
#include "group/group.h"
#include "mpz/rng.h"

#ifndef PPGR_GOLDEN_DIR
#define PPGR_GOLDEN_DIR "tests/golden"
#endif

namespace ppgr::engine {
namespace {

using core::AttrVec;
using core::ProblemSpec;
using mpz::ChaChaRng;

// Small but non-trivial instance; inputs are a pure function of
// (session_id, input_seed) so independent engines can be handed the exact
// same request set.
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

std::vector<RankingRequest> small_batch(std::size_t count, std::size_t n) {
  std::vector<RankingRequest> reqs;
  for (std::uint64_t sid = 1; sid <= count; ++sid)
    reqs.push_back(make_request(sid, n, /*k=*/2));
  return reqs;
}

void expect_bit_identical(const SessionResult& a, const SessionResult& b) {
  ASSERT_EQ(a.id, b.id);
  ASSERT_EQ(a.framework, b.framework);
  EXPECT_EQ(a.ranks(), b.ranks());
  EXPECT_EQ(a.submitted_ids(), b.submitted_ids());
  if (a.framework == FrameworkKind::kHe) {
    EXPECT_EQ(a.he.betas, b.he.betas);
  }
  // Transfer-for-transfer identical communication trace.
  const auto& ta = a.trace().transfers();
  const auto& tb = b.trace().transfers();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].round, tb[i].round) << "transfer " << i;
    EXPECT_EQ(ta[i].src, tb[i].src) << "transfer " << i;
    EXPECT_EQ(ta[i].dst, tb[i].dst) << "transfer " << i;
    EXPECT_EQ(ta[i].bytes, tb[i].bytes) << "transfer " << i;
  }
  ASSERT_NE(a.metrics(), nullptr);
  ASSERT_NE(b.metrics(), nullptr);
  EXPECT_EQ(a.metrics()->to_json(/*include_timing=*/false),
            b.metrics()->to_json(/*include_timing=*/false));
}

TEST(SessionEngine, RanksMatchReferenceForHeAndSs) {
  PrecomputeCache cache;
  EngineConfig cfg;
  cfg.seed = 41;
  cfg.max_in_flight = 2;
  cfg.cache = &cache;
  SessionEngine engine{cfg};

  std::vector<RankingRequest> reqs;
  reqs.push_back(make_request(1, /*n=*/5, /*k=*/2));
  reqs.push_back(make_request(2, /*n=*/4, /*k=*/1));
  reqs.push_back(make_request(3, /*n=*/5, /*k=*/2, FrameworkKind::kSs));
  const std::vector<std::size_t> ks{2, 1, 2};
  const auto expected = [&] {
    std::vector<std::vector<std::size_t>> e;
    for (const auto& r : reqs)
      e.push_back(core::reference_ranks(r.spec, r.v0, r.w, r.infos));
    return e;
  }();

  const auto results = engine.run_batch(std::move(reqs));
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    // make_request draws random 6-bit attributes: gains are distinct for
    // these fixed seeds (verified against the insecure reference).
    EXPECT_EQ(results[i].ranks(), expected[i]) << "session " << i + 1;
    for (std::size_t j = 0; j < results[i].ranks().size(); ++j) {
      const auto& ids = results[i].submitted_ids();
      const bool submitted =
          std::find(ids.begin(), ids.end(), j + 1) != ids.end();
      EXPECT_EQ(submitted, results[i].ranks()[j] <= ks[i]);
    }
  }
  EXPECT_EQ(results[2].framework, FrameworkKind::kSs);
  EXPECT_GT(results[2].ss.parallel_rounds, 0u);
}

TEST(SessionEngine, AdmissionCapBoundsConcurrency) {
  PrecomputeCache cache;
  EngineConfig cfg;
  cfg.seed = 7;
  cfg.max_in_flight = 2;
  cfg.parallelism = 2;
  cfg.cache = &cache;
  SessionEngine engine{cfg};
  for (auto& req : small_batch(/*count=*/6, /*n=*/4))
    engine.submit(std::move(req));
  engine.drain();
  EXPECT_GE(engine.peak_in_flight(), 1u);
  EXPECT_LE(engine.peak_in_flight(), 2u);
  EXPECT_EQ(engine.precompute_stats().generator_table.hits +
                engine.precompute_stats().generator_table.misses,
            6u);
}

// An engine HE session runs exactly run_framework's evaluation on the
// session's stream: the same ranks, β and wire transfers, and the same
// executed op counts phase by phase — every encryption of zero the protocol
// charges is drawn, counted and timed inside the run, on every group family.
TEST(SessionEngine, HeSessionRunsTheSameEvaluationAsRunFramework) {
  constexpr std::uint64_t kSeed = 314;
  constexpr std::uint64_t kSid = 3;
  for (const group::GroupId id :
       {group::GroupId::kDlTest256, group::GroupId::kEcP192}) {
    RankingRequest req = make_request(kSid, /*n=*/4, /*k=*/2);
    req.group = id;
    const RankingRequest copy = req;

    PrecomputeCache cache;
    EngineConfig cfg;
    cfg.seed = kSeed;
    cfg.max_in_flight = 1;
    cfg.cache = &cache;
    SessionEngine engine{cfg};
    const SessionResult via_engine = engine.take(engine.submit(std::move(req)));

    const auto g = group::make_group(id);
    core::FrameworkConfig fcfg;
    fcfg.spec = copy.spec;
    fcfg.n = copy.infos.size();
    fcfg.k = copy.k;
    fcfg.group = g.get();
    fcfg.dot_field = &core::default_dot_field();
    fcfg.metrics = true;
    ChaChaRng root{kSeed};
    ChaChaRng rng = mpz::StreamFamily{root}.stream(kSid);
    const core::FrameworkResult direct =
        core::run_framework(fcfg, copy.v0, copy.w, copy.infos, rng);

    SCOPED_TRACE(g->name());
    ASSERT_EQ(via_engine.outcome, SessionOutcome::kOk);
    EXPECT_EQ(via_engine.he.ranks, direct.ranks);
    EXPECT_EQ(via_engine.he.betas, direct.betas);
    const auto& te = via_engine.he.trace.transfers();
    const auto& td = direct.trace.transfers();
    ASSERT_EQ(te.size(), td.size());
    for (std::size_t i = 0; i < te.size(); ++i) {
      EXPECT_EQ(te[i].round, td[i].round) << "transfer " << i;
      EXPECT_EQ(te[i].src, td[i].src) << "transfer " << i;
      EXPECT_EQ(te[i].dst, td[i].dst) << "transfer " << i;
      EXPECT_EQ(te[i].bytes, td[i].bytes) << "transfer " << i;
    }
    for (std::size_t p = 0; p < runtime::kPhaseCount; ++p) {
      const auto phase = static_cast<runtime::Phase>(p);
      EXPECT_EQ(via_engine.he.metrics->phase_totals(phase).v,
                direct.metrics->phase_totals(phase).v)
          << runtime::phase_name(phase);
    }
  }
}

// The tentpole invariant: one fixed request set produces bit-identical
// per-session outputs whether sessions run one-at-a-time or 16-wide, on a
// serial or multi-threaded pool, over a cold or a warm cache.
TEST(SessionEngine, BitIdenticalAcrossLoadParallelismAndCache) {
  constexpr std::size_t kSessions = 16;
  const auto run = [&](std::size_t in_flight, std::size_t parallelism,
                       PrecomputeCache& cache) {
    EngineConfig cfg;
    cfg.seed = 1234;
    cfg.max_in_flight = in_flight;
    cfg.parallelism = parallelism;
    cfg.cache = &cache;
    SessionEngine engine{cfg};
    return engine.run_batch(small_batch(kSessions, /*n=*/4));
  };

  PrecomputeCache cold_serial;
  PrecomputeCache cold_loaded;
  const auto serial = run(1, 1, cold_serial);
  const auto loaded = run(16, 2, cold_loaded);
  const auto warm = run(16, 2, cold_serial);  // its table is resident now
  ASSERT_EQ(serial.size(), kSessions);
  ASSERT_EQ(loaded.size(), kSessions);
  ASSERT_EQ(warm.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    expect_bit_identical(serial[i], loaded[i]);
    expect_bit_identical(serial[i], warm[i]);
  }
}

TEST(SessionEngine, ColdWarmCacheAccountingIsExact) {
  constexpr std::size_t kSessions = 5;
  PrecomputeCache cache;
  EngineConfig cfg;
  cfg.seed = 55;
  cfg.max_in_flight = 4;
  cfg.cache = &cache;

  {
    SessionEngine cold{cfg};
    (void)cold.run_batch(small_batch(kSessions, /*n=*/4));
    const PrecomputeStats s = cold.precompute_stats();
    // One group in play: the generator table is built once and shared.
    EXPECT_EQ(s.generator_table.misses, 1u);
    EXPECT_EQ(s.generator_table.hits, kSessions - 1);
    const auto totals = cold.metrics().totals();
    EXPECT_EQ(totals[runtime::CryptoOp::kPrecomputeHit], kSessions - 1);
    EXPECT_EQ(totals[runtime::CryptoOp::kPrecomputeMiss], 1u);
  }

  // A second engine over the same cache finds the table resident.
  SessionEngine warm{cfg};
  (void)warm.run_batch(small_batch(kSessions, /*n=*/4));
  const PrecomputeStats w = warm.precompute_stats();
  EXPECT_EQ(w.generator_table.hits, kSessions);
  EXPECT_EQ(w.total().misses, 0u);
  EXPECT_EQ(cache.size(), 1u);
  const auto totals = warm.metrics().totals();
  EXPECT_EQ(totals[runtime::CryptoOp::kPrecomputeHit], kSessions);
  EXPECT_EQ(totals[runtime::CryptoOp::kPrecomputeMiss], 0u);
}

std::string rollup_at(std::size_t in_flight, std::size_t parallelism) {
  PrecomputeCache cache;
  EngineConfig cfg;
  cfg.seed = 2025;
  cfg.max_in_flight = in_flight;
  cfg.parallelism = parallelism;
  cfg.cache = &cache;
  SessionEngine engine{cfg};
  std::vector<RankingRequest> reqs;
  reqs.push_back(make_request(1, /*n=*/5, /*k=*/2));
  reqs.push_back(make_request(2, /*n=*/4, /*k=*/1));
  reqs.push_back(make_request(3, /*n=*/5, /*k=*/2, FrameworkKind::kSs));
  (void)engine.run_batch(std::move(reqs));
  return engine.rollup_json();
}

void check_golden(const char* name, const std::string& produced) {
  const std::string path = std::string{PPGR_GOLDEN_DIR} + "/" + name;
  if (std::getenv("PPGR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{path};
    ASSERT_TRUE(out) << "cannot write " << path;
    out << produced;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in{path};
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with PPGR_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(produced, expected.str())
      << name << " drifted from its golden; if the change is deliberate, "
      << "regenerate with PPGR_UPDATE_GOLDEN=1";
}

TEST(SessionEngine, RollupMatchesGoldenAtEveryParallelism) {
  const std::string serial = rollup_at(1, 1);
  EXPECT_EQ(serial, rollup_at(3, 2));
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;
  EXPECT_EQ(serial, rollup_at(3, hw));
  check_golden("engine_small.json", serial);
}

// TSan target (scripts/ci.sh engine leg): many sessions racing through the
// shared pool, the shared cache and the engine's bookkeeping at once.
TEST(SessionEngineStress, ConcurrentSessionsUnderSharedCache) {
  PrecomputeCache cache;
  EngineConfig cfg;
  cfg.seed = 90210;
  cfg.max_in_flight = 8;
  cfg.parallelism = 2;
  cfg.cache = &cache;
  SessionEngine engine{cfg};

  std::vector<std::uint64_t> ids;
  for (auto& req : small_batch(/*count=*/12, /*n=*/4))
    ids.push_back(engine.submit(std::move(req)));
  // take() from several consumer threads while drivers are still producing.
  std::vector<std::thread> consumers;
  std::mutex mu;
  std::size_t ok = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    consumers.emplace_back([&, c] {
      for (std::size_t i = c; i < ids.size(); i += 3) {
        const SessionResult res = engine.take(ids[i]);
        const std::lock_guard<std::mutex> lock(mu);
        ok += res.ranks().size() == 4 ? 1 : 0;
      }
    });
  }
  for (auto& t : consumers) t.join();
  EXPECT_EQ(ok, ids.size());
  EXPECT_LE(engine.peak_in_flight(), 8u);
}

}  // namespace
}  // namespace ppgr::engine
