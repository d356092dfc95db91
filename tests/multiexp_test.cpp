// Differential crypto harness for the phase-2 multi-exponentiation engine
// (PR 6): Straus, Pippenger, the auto-selecting multi_exp() dispatcher and
// the windowed FixedBaseTable must all agree bit-for-bit with the naive
// per-term Group::exp evaluation, on every group family the framework runs
// over — mock (composite order), Schnorr (unique Montgomery representation)
// and elliptic-curve (non-unique Jacobian representation, compared through
// eq() and the canonical serialization). Edge exponents cover the window
// boundaries the algorithms digit-slice at: 0, 1, 2^w - 1, and order +/- 1.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "group/fixed_base.h"
#include "group/mock_group.h"
#include "group/multi_exp.h"

namespace ppgr::group {
namespace {

using mpz::ChaChaRng;
using mpz::Nat;

/// Naive reference: Π_i bases[i]^exps[i] one exp at a time.
Elem naive_product(const Group& g, const std::vector<Elem>& bases,
                   const std::vector<Nat>& exps) {
  Elem acc = g.identity();
  for (std::size_t i = 0; i < bases.size(); ++i)
    acc = g.mul(acc, g.exp(bases[i], exps[i]));
  return acc;
}

/// eq() plus canonical-encoding equality: EC results may differ in Jacobian
/// representation, but the wire bytes (what crosses between parties) must
/// match exactly.
void expect_same(const Group& g, const Elem& got, const Elem& want,
                 const char* what) {
  EXPECT_TRUE(g.eq(got, want)) << what;
  EXPECT_EQ(g.serialize(got), g.serialize(want)) << what;
}

/// The edge exponents every algorithm must digit-slice correctly: zero (no
/// windows at all), one, a full bottom window (2^4 - 1 for the default
/// w = 4), and the wrap-around neighborhood of the group order.
std::vector<Nat> edge_exponents(const Group& g) {
  return {Nat{}, Nat{1}, Nat{15}, Nat::sub(g.order(), Nat{1}), g.order(),
          Nat::add(g.order(), Nat{1})};
}

class MultiExpTest : public ::testing::TestWithParam<const char*> {
 protected:
  MultiExpTest() {
    const std::string which = GetParam();
    if (which == "mock") {
      g_ = std::make_unique<MockGroup>("mock");
    } else if (which == "schnorr") {
      g_ = make_group(GroupId::kDlTest256);
    } else {
      g_ = make_group(GroupId::kEcP192);
    }
  }

  /// k random bases with random scalars.
  void random_terms(std::size_t k, std::vector<Elem>& bases,
                    std::vector<Nat>& exps) {
    for (std::size_t i = 0; i < k; ++i) {
      bases.push_back(g_->exp_g(g_->random_nonzero_scalar(rng_)));
      exps.push_back(g_->random_nonzero_scalar(rng_));
    }
  }

  std::unique_ptr<Group> g_;
  ChaChaRng rng_{42};
};

TEST_P(MultiExpTest, ZeroTermsYieldIdentity) {
  const std::vector<Elem> bases;
  const std::vector<Nat> exps;
  EXPECT_TRUE(g_->is_identity(multi_exp(*g_, bases, exps)));
  EXPECT_TRUE(g_->is_identity(multi_exp_straus(*g_, bases, exps)));
  EXPECT_TRUE(g_->is_identity(multi_exp_pippenger(*g_, bases, exps)));
}

TEST_P(MultiExpTest, SingleTermMatchesExpOnEdgeExponents) {
  for (const Nat& e : edge_exponents(*g_)) {
    const std::vector<Elem> bases{g_->exp_g(g_->random_nonzero_scalar(rng_))};
    const std::vector<Nat> exps{e};
    const Elem want = naive_product(*g_, bases, exps);
    expect_same(*g_, multi_exp(*g_, bases, exps), want, "dispatch");
    expect_same(*g_, multi_exp_straus(*g_, bases, exps), want, "straus");
    expect_same(*g_, multi_exp_pippenger(*g_, bases, exps), want, "pippenger");
  }
}

TEST_P(MultiExpTest, TwoTermsTheProtocolShape) {
  // The phase-2 hot path always fuses exactly two terms (ω accumulation,
  // shuffle-hop rerandomization) — the shape that must be airtight. Pair
  // every edge exponent with every other, plus random fill.
  const auto edges = edge_exponents(*g_);
  for (const Nat& e0 : edges) {
    for (const Nat& e1 : edges) {
      std::vector<Elem> bases;
      std::vector<Nat> exps;
      random_terms(2, bases, exps);
      exps[0] = e0;
      exps[1] = e1;
      const Elem want = naive_product(*g_, bases, exps);
      expect_same(*g_, multi_exp(*g_, bases, exps), want, "dispatch");
      expect_same(*g_, multi_exp_straus(*g_, bases, exps), want, "straus");
      expect_same(*g_, multi_exp_pippenger(*g_, bases, exps), want,
                  "pippenger");
    }
  }
}

TEST_P(MultiExpTest, RandomBatchesAcrossTheAlgorithmSwitch) {
  // Straus side (k <= kStrausMaxTerms), the boundary itself, and the first
  // Pippenger size — all against the naive product.
  for (const std::size_t k :
       {std::size_t{3}, std::size_t{8}, kStrausMaxTerms, kStrausMaxTerms + 1,
        std::size_t{40}}) {
    std::vector<Elem> bases;
    std::vector<Nat> exps;
    random_terms(k, bases, exps);
    const Elem want = naive_product(*g_, bases, exps);
    expect_same(*g_, multi_exp(*g_, bases, exps), want, "dispatch");
    expect_same(*g_, multi_exp_straus(*g_, bases, exps), want, "straus");
    expect_same(*g_, multi_exp_pippenger(*g_, bases, exps), want, "pippenger");
  }
}

TEST_P(MultiExpTest, StrausWindowWidthsAllAgree) {
  std::vector<Elem> bases;
  std::vector<Nat> exps;
  random_terms(5, bases, exps);
  exps[0] = Nat{};  // keep one all-zero column in the digit matrix
  const Elem want = naive_product(*g_, bases, exps);
  for (std::size_t w = 1; w <= 8; ++w)
    expect_same(*g_, multi_exp_straus(*g_, bases, exps, w), want, "straus w");
}

TEST_P(MultiExpTest, SizeMismatchThrows) {
  const std::vector<Elem> bases{g_->generator()};
  const std::vector<Nat> exps;
  EXPECT_THROW((void)multi_exp(*g_, bases, exps), std::invalid_argument);
  EXPECT_THROW((void)multi_exp_straus(*g_, bases, exps), std::invalid_argument);
  EXPECT_THROW((void)multi_exp_pippenger(*g_, bases, exps),
               std::invalid_argument);
}

TEST_P(MultiExpTest, StrausRejectsBadWindow) {
  std::vector<Elem> bases;
  std::vector<Nat> exps;
  random_terms(1, bases, exps);
  EXPECT_THROW((void)multi_exp_straus(*g_, bases, exps, 0),
               std::invalid_argument);
  EXPECT_THROW((void)multi_exp_straus(*g_, bases, exps, 9),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllGroups, MultiExpTest,
                         ::testing::Values("mock", "schnorr", "ec"),
                         [](const auto& info) { return std::string{info.param}; });

TEST(MultiExpLarge, FourThousandTermsPippenger) {
  // The ISSUE's large shape: 4096 terms, deep in Pippenger territory where
  // the bucket count and suffix-sum accumulation are fully exercised. Mock
  // (61-bit) and the test Schnorr group keep the naive reference affordable.
  for (const bool schnorr : {false, true}) {
    std::unique_ptr<Group> g;
    if (schnorr)
      g = make_group(GroupId::kDlTest256);
    else
      g = std::make_unique<MockGroup>("mock");
    ChaChaRng rng{7};
    std::vector<Elem> bases;
    std::vector<Nat> exps;
    for (std::size_t i = 0; i < 4096; ++i) {
      bases.push_back(g->exp_g(g->random_nonzero_scalar(rng)));
      // Sprinkle edge exponents through the batch so some buckets stay empty.
      exps.push_back(i % 97 == 0 ? Nat{} : g->random_nonzero_scalar(rng));
    }
    Elem want = g->identity();
    for (std::size_t i = 0; i < bases.size(); ++i)
      want = g->mul(want, g->exp(bases[i], exps[i]));
    const Elem got = multi_exp(*g, bases, exps);
    EXPECT_TRUE(g->eq(got, want)) << g->name();
    EXPECT_EQ(g->serialize(got), g->serialize(want)) << g->name();
  }
}

class FixedBaseTest : public MultiExpTest {};

TEST_P(FixedBaseTest, TableMatchesGenericExpAcrossWidths) {
  const Elem base = g_->exp_g(g_->random_nonzero_scalar(rng_));
  const std::size_t bits = g_->order().bit_length();
  std::vector<Nat> scalars = edge_exponents(*g_);
  for (int i = 0; i < 4; ++i) scalars.push_back(g_->random_nonzero_scalar(rng_));
  for (std::size_t w = 2; w <= 8; ++w) {
    const FixedBaseTable table{*g_, base, bits, w};
    EXPECT_EQ(table.window_bits(), w);
    for (const Nat& s : scalars)
      expect_same(*g_, table.exp(*g_, s), g_->exp(base, s), "fixed-base");
  }
}

TEST_P(FixedBaseTest, WiderScalarFallsBackToGenericExp) {
  // A table sized for 16-bit scalars asked for a full-width power: must
  // fall back to the group's generic ladder, not truncate the scalar.
  const Elem base = g_->exp_g(g_->random_nonzero_scalar(rng_));
  const FixedBaseTable table{*g_, base, 16};
  const Nat wide = Nat::add(g_->order(), Nat{2});
  expect_same(*g_, table.exp(*g_, wide), g_->exp(base, wide), "fallback");
}

TEST_P(FixedBaseTest, RejectsOutOfRangeWindow) {
  EXPECT_THROW((FixedBaseTable{*g_, g_->generator(), 64, 1}),
               std::invalid_argument);
  EXPECT_THROW((FixedBaseTable{*g_, g_->generator(), 64, 9}),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllGroups, FixedBaseTest,
                         ::testing::Values("mock", "schnorr", "ec"),
                         [](const auto& info) { return std::string{info.param}; });

}  // namespace
}  // namespace ppgr::group
