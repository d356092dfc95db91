// Tests for the Batcher network generator and the multiparty rank sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "core/ss_framework.h"
#include "sss/mpc_sort.h"
#include "sss/sort_network.h"

namespace ppgr::sss {
namespace {

using mpz::ChaChaRng;
using mpz::FpCtx;

const FpCtx& small_field() {
  static const FpCtx f{mpz::Nat{131071}};  // 2^17 - 1
  return f;
}

class BatcherSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatcherSizes, SortsEveryRandomInput) {
  const std::size_t n = GetParam();
  const auto net = batcher_network(n);
  ChaChaRng rng{70 + n};
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = rng.below_u64(50);  // duplicates likely
    std::vector<std::uint64_t> expect = v;
    std::sort(expect.begin(), expect.end());
    apply_network_plain(net, v);
    EXPECT_EQ(v, expect) << "n=" << n;
  }
}

TEST_P(BatcherSizes, LayersTouchDisjointWires) {
  const auto net = batcher_network(GetParam());
  for (const Layer& layer : net) {
    std::vector<std::size_t> wires;
    for (const Comparator& c : layer) {
      EXPECT_LT(c.lo, c.hi);
      wires.push_back(c.lo);
      wires.push_back(c.hi);
    }
    std::sort(wires.begin(), wires.end());
    EXPECT_TRUE(std::adjacent_find(wires.begin(), wires.end()) == wires.end())
        << "duplicate wire in a parallel layer";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatcherSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 25, 31,
                                           64));

TEST(Batcher, AsymptoticsMatchPaper) {
  // O(n (log n)^2) comparators and O((log n)^2) depth.
  for (std::size_t n : {16u, 64u, 256u}) {
    const auto net = batcher_network(n);
    const double logn = std::log2(static_cast<double>(n));
    EXPECT_LE(static_cast<double>(comparator_count(net)),
              0.5 * n * logn * (logn + 1) + n);
    EXPECT_LE(static_cast<double>(net.size()), logn * (logn + 1) / 2 + 1);
  }
}

// ---- MPC rank sort ----

std::vector<std::size_t> plain_ranks(const std::vector<std::uint64_t>& vals) {
  // rank 1 = largest; ties broken arbitrarily but consistently with a stable
  // descending sort by (value, index).
  std::vector<std::size_t> idx(vals.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return vals[a] > vals[b]; });
  std::vector<std::size_t> ranks(vals.size());
  for (std::size_t pos = 0; pos < idx.size(); ++pos) ranks[idx[pos]] = pos + 1;
  return ranks;
}

TEST(MpcRankSort, DistinctValuesExactRanks) {
  ChaChaRng rng{80};
  MpcEngine engine{small_field(), 5, 2, rng};
  const std::vector<Nat> values{Nat{500}, Nat{100}, Nat{900}, Nat{300},
                                Nat{700}};
  const auto result = mpc_rank_sort(engine, values);
  EXPECT_EQ(result.ranks, (std::vector<std::size_t>{3, 5, 1, 4, 2}));
  EXPECT_EQ(result.comparators, comparator_count(batcher_network(5)));
  EXPECT_GT(result.costs.mults, 0u);
  EXPECT_GT(result.parallel_rounds, 0u);
  EXPECT_LT(result.parallel_rounds, result.costs.rounds);
}

TEST(MpcRankSort, RandomInputsMatchPlainRanking) {
  ChaChaRng rng{81};
  for (std::size_t n : {2u, 3u, 6u}) {
    MpcEngine engine{small_field(), 5, 2, rng};
    std::vector<std::uint64_t> raw(n);
    for (auto& x : raw) x = rng.below_u64(60000);
    std::vector<Nat> values;
    for (auto x : raw) values.emplace_back(x);
    const auto result = mpc_rank_sort(engine, values);
    // With distinct values the rank vector must match the plain ranking; with
    // duplicates the positions of equal values may swap, so compare sorted
    // multisets of (value, rank) consistency: rank order must respect values.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (raw[i] > raw[j]) {
          EXPECT_LT(result.ranks[i], result.ranks[j]);
        }
      }
    }
    // Ranks are a permutation of 1..n.
    auto sorted = result.ranks;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(sorted[i], i + 1);
  }
}

TEST(MpcRankSort, DuplicateValues) {
  ChaChaRng rng{82};
  MpcEngine engine{small_field(), 5, 2, rng};
  const std::vector<Nat> values{Nat{5}, Nat{5}, Nat{9}, Nat{1}};
  const auto result = mpc_rank_sort(engine, values);
  EXPECT_EQ(result.ranks[2], 1u);
  EXPECT_EQ(result.ranks[3], 4u);
  // The two fives occupy ranks {2, 3} in some order.
  EXPECT_EQ(std::min(result.ranks[0], result.ranks[1]), 2u);
  EXPECT_EQ(std::max(result.ranks[0], result.ranks[1]), 3u);
}

TEST(MpcRankSort, RejectsOutOfRangeValues) {
  ChaChaRng rng{83};
  MpcEngine engine{small_field(), 5, 2, rng};
  const std::vector<Nat> values{small_field().p().shr(1), Nat{1}};
  EXPECT_THROW((void)mpc_rank_sort(engine, values), std::invalid_argument);
  EXPECT_THROW((void)mpc_rank_sort(engine, std::vector<Nat>{}),
               std::invalid_argument);
}

TEST(MpcRankSort, CountOnlyModeCharges) {
  ChaChaRng rng{84};
  MpcEngine engine{small_field(), 7, 3, rng, MpcEngine::Mode::kCountOnly};
  const std::vector<Nat> values(10, Nat{});
  const auto result = mpc_rank_sort(engine, values);
  EXPECT_TRUE(result.ranks.empty());
  EXPECT_EQ(result.comparators, comparator_count(batcher_network(10)));
  // ~O(l) mults per comparator.
  EXPECT_GT(result.costs.mults, result.comparators * small_field().bits());
  EXPECT_GT(result.parallel_rounds, 0u);
}

TEST(MpcRankSort, PlainRankHelperAgreesOnDistinct) {
  // Guard the test helper itself.
  EXPECT_EQ(plain_ranks({10, 30, 20}), (std::vector<std::size_t>{3, 1, 2}));
}


// ---- bit-identity pins on the SS framework's field ----
//
// SS sessions sort 35-bit betas on core::ss_field_for_beta_bits(35), a
// 37-bit prime, at n = 5 (t = 2) and n = 7 (t = 3). The ranks and exact
// costs below were captured from the Nat-based engine the residue engine
// replaced: every share, every rejection retry of rand_bitwise (seed 2
// takes more than seed 1 at both sizes) and every counter must stay as it
// was.

struct SortPin {
  std::size_t n, t;
  std::uint64_t seed;
  std::vector<std::size_t> ranks;
  MpcCosts costs;
};

TEST(MpcRankSort, PinnedRanksAndCostsOnBetaField) {
  const SortPin pins[] = {
      {5, 2, 1, {5, 2, 3, 1, 4},
       {.mults = 6434, .opens = 1552, .deals = 7410, .rounds = 5615,
        .bytes = 946800, .rand_bits = 1480, .comparisons = 9}},
      {5, 2, 2, {5, 3, 4, 2, 1},
       {.mults = 6764, .opens = 1666, .deals = 7965, .rounds = 5954,
        .bytes = 1002300, .rand_bits = 1591, .comparisons = 9}},
      {7, 3, 1, {7, 4, 5, 3, 6, 2, 1},
       {.mults = 11316, .opens = 2715, .deals = 18144, .rounds = 9851,
        .bytes = 3490830, .rand_bits = 2590, .comparisons = 16}},
      {7, 3, 2, {7, 5, 6, 3, 2, 1, 4},
       {.mults = 11866, .opens = 2905, .deals = 19439, .rounds = 10416,
        .bytes = 3685080, .rand_bits = 2775, .comparisons = 16}},
  };
  for (const SortPin& pin : pins) {
    ChaChaRng rng{pin.seed};
    std::vector<Nat> values;
    for (std::size_t i = 0; i < pin.n; ++i)
      values.emplace_back(rng.below_u64(std::uint64_t{1} << 35));
    MpcEngine engine{core::ss_field_for_beta_bits(35), pin.n, pin.t, rng};
    const RankSortResult r = mpc_rank_sort(engine, values);
    const std::string at =
        "n=" + std::to_string(pin.n) + " seed=" + std::to_string(pin.seed);
    EXPECT_EQ(r.ranks, pin.ranks) << at;
    EXPECT_EQ(r.costs.mults, pin.costs.mults) << at;
    EXPECT_EQ(r.costs.opens, pin.costs.opens) << at;
    EXPECT_EQ(r.costs.deals, pin.costs.deals) << at;
    EXPECT_EQ(r.costs.rounds, pin.costs.rounds) << at;
    EXPECT_EQ(r.costs.bytes, pin.costs.bytes) << at;
    EXPECT_EQ(r.costs.rand_bits, pin.costs.rand_bits) << at;
    EXPECT_EQ(r.costs.comparisons, pin.costs.comparisons) << at;
  }
}

}  // namespace
}  // namespace ppgr::sss
