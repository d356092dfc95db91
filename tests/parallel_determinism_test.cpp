// Determinism of the parallel execution engine: run_framework must produce
// bit-identical outputs — ranks, submitted ids, β values and the full
// communication trace — for every cfg.parallelism value under the same
// seed, and ranks must stay correct (vs the plain reference) when the
// engine actually runs multi-threaded. This test is also the TSan workload
// proving the engine race-free (scripts/ci.sh runs it under the tsan
// preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

#include "core/framework.h"

namespace ppgr::core {
namespace {

using group::GroupId;
using group::make_group;
using mpz::ChaChaRng;

FrameworkConfig small_config(const group::Group& g, std::size_t parallelism) {
  FrameworkConfig cfg;
  cfg.spec = ProblemSpec{.m = 3, .t = 1, .d1 = 6, .d2 = 4, .h = 5};
  cfg.n = 5;
  cfg.k = 2;
  cfg.group = &g;
  cfg.dot_field = &default_dot_field();
  cfg.dot_s = 4;
  cfg.parallelism = parallelism;
  return cfg;
}

std::vector<AttrVec> random_infos(const ProblemSpec& spec, std::size_t n,
                                  mpz::Rng& rng) {
  std::vector<AttrVec> infos;
  for (std::size_t j = 0; j < n; ++j) {
    AttrVec v(spec.m);
    for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << spec.d1);
    infos.push_back(std::move(v));
  }
  return infos;
}

FrameworkResult run_at(std::size_t parallelism, std::uint64_t seed) {
  const auto g = make_group(GroupId::kDlTest256);
  const FrameworkConfig cfg = small_config(*g, parallelism);
  ChaChaRng rng{seed};
  AttrVec v0(cfg.spec.m), w(cfg.spec.m);
  for (auto& x : v0) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d1);
  for (auto& x : w) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d2);
  const auto infos = random_infos(cfg.spec, cfg.n, rng);
  return run_framework(cfg, v0, w, infos, rng);
}

void expect_identical(const FrameworkResult& a, const FrameworkResult& b,
                      const char* what) {
  EXPECT_EQ(a.ranks, b.ranks) << what;
  EXPECT_EQ(a.submitted_ids, b.submitted_ids) << what;
  ASSERT_EQ(a.betas.size(), b.betas.size()) << what;
  for (std::size_t j = 0; j < a.betas.size(); ++j)
    EXPECT_EQ(a.betas[j], b.betas[j]) << what << ": beta " << j;
  EXPECT_EQ(a.trace.total_bytes(), b.trace.total_bytes()) << what;
  ASSERT_EQ(a.trace.transfers().size(), b.trace.transfers().size()) << what;
  for (std::size_t i = 0; i < a.trace.transfers().size(); ++i) {
    const auto& ta = a.trace.transfers()[i];
    const auto& tb = b.trace.transfers()[i];
    EXPECT_EQ(ta.round, tb.round) << what << ": transfer " << i;
    EXPECT_EQ(ta.src, tb.src) << what << ": transfer " << i;
    EXPECT_EQ(ta.dst, tb.dst) << what << ": transfer " << i;
    EXPECT_EQ(ta.bytes, tb.bytes) << what << ": transfer " << i;
  }
}

TEST(ParallelDeterminism, ThreadCountDoesNotChangeOutputs) {
  const auto serial = run_at(1, 2024);
  const auto two = run_at(2, 2024);
  expect_identical(serial, two, "threads=1 vs threads=2");

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;
  const auto many = run_at(hw, 2024);
  expect_identical(serial, many, "threads=1 vs threads=hw");

  // parallelism = 0 resolves to hardware concurrency — still identical.
  const auto autod = run_at(0, 2024);
  expect_identical(serial, autod, "threads=1 vs threads=auto");
}

TEST(ParallelDeterminism, DifferentSeedsDiffer) {
  // Sanity: the determinism above is not the degenerate "everything
  // constant" case — a different root seed must change the β values.
  const auto a = run_at(2, 7);
  const auto b = run_at(2, 8);
  ASSERT_EQ(a.betas.size(), b.betas.size());
  bool any_diff = false;
  for (std::size_t j = 0; j < a.betas.size(); ++j)
    if (!(a.betas[j] == b.betas[j])) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(ParallelDeterminism, RanksCorrectUnderThreading) {
  // Rank correctness vs the plain reference while the engine is actually
  // multi-threaded (and under TSan: the race detector workload).
  const auto g = make_group(GroupId::kDlTest256);
  const FrameworkConfig cfg = small_config(*g, 4);
  ChaChaRng rng{99};
  AttrVec v0(cfg.spec.m, 0), w(cfg.spec.m);
  for (auto& x : w) x = 1 + rng.below_u64(std::uint64_t{1} << (cfg.spec.d2 - 1));
  const auto infos = random_infos(cfg.spec, cfg.n, rng);
  const auto result = run_framework(cfg, v0, w, infos, rng);

  std::vector<Int> gains;
  for (const auto& v : infos) gains.push_back(gain(cfg.spec, v0, w, v));
  auto sorted = gains;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end()) {
    EXPECT_EQ(result.ranks, reference_ranks(cfg.spec, v0, w, infos));
  } else {
    // Ties can resolve either way; ranks must still be a valid assignment.
    for (const auto r : result.ranks) {
      EXPECT_GE(r, 1u);
      EXPECT_LE(r, cfg.n);
    }
  }
  // Submissions = exactly the rank <= k set, threading or not.
  for (std::size_t j = 0; j < cfg.n; ++j) {
    const bool submitted =
        std::find(result.submitted_ids.begin(), result.submitted_ids.end(),
                  j + 1) != result.submitted_ids.end();
    EXPECT_EQ(submitted, result.ranks[j] <= cfg.k);
  }
}

TEST(ParallelDeterminism, EcGroupAlsoDeterministic) {
  // The EC group shares the lazy fixed-base table (now call_once-guarded);
  // cover it with a two-thread run compared against serial.
  const auto g = make_group(GroupId::kEcP192);
  ChaChaRng rng1{55}, rng2{55};
  FrameworkConfig cfg;
  cfg.spec = ProblemSpec{.m = 2, .t = 1, .d1 = 5, .d2 = 3, .h = 4};
  cfg.n = 3;
  cfg.k = 1;
  cfg.group = g.get();
  cfg.dot_field = &default_dot_field();
  cfg.dot_s = 4;
  const std::vector<AttrVec> infos{{1, 2}, {9, 4}, {5, 6}};
  cfg.parallelism = 1;
  const auto serial = run_framework(cfg, {0, 0}, {1, 1}, infos, rng1);
  cfg.parallelism = 3;
  const auto threaded = run_framework(cfg, {0, 0}, {1, 1}, infos, rng2);
  expect_identical(serial, threaded, "ec: threads=1 vs threads=3");
}

}  // namespace
}  // namespace ppgr::core
