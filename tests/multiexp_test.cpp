// Differential crypto harness for the fused exponentiations phase 2 runs:
// Group::dual_exp (SchnorrGroup's residue-native ladder, and the default
// Straus ladder EcGroup and MockGroup use) and the windowed FixedBaseTable
// must agree bit-for-bit with the naive per-term Group::exp evaluation, on
// every group family the framework runs over — mock (composite order),
// Schnorr (unique Montgomery representation) and elliptic-curve (non-unique
// Jacobian representation, compared through eq() and the canonical
// serialization). Edge exponents cover the window boundaries the ladders
// digit-slice at: 0, 1, 2^w - 1, and order +/- 1.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "group/fixed_base.h"
#include "group/mock_group.h"

namespace ppgr::group {
namespace {

using mpz::ChaChaRng;
using mpz::Nat;

/// Naive reference: x^ex · y^ey one exp at a time.
Elem naive_product(const Group& g, const Elem& x, const Nat& ex, const Elem& y,
                   const Nat& ey) {
  return g.mul(g.exp(x, ex), g.exp(y, ey));
}

/// eq() plus canonical-encoding equality: EC results may differ in Jacobian
/// representation, but the wire bytes (what crosses between parties) must
/// match exactly.
void expect_same(const Group& g, const Elem& got, const Elem& want,
                 const char* what) {
  EXPECT_TRUE(g.eq(got, want)) << what;
  EXPECT_EQ(g.serialize(got), g.serialize(want)) << what;
}

/// The edge exponents every ladder must digit-slice correctly: zero (no
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

  Elem random_elem() { return g_->exp_g(g_->random_nonzero_scalar(rng_)); }

  std::unique_ptr<Group> g_;
  ChaChaRng rng_{42};
};

TEST_P(MultiExpTest, DualExpMatchesExpOnEdgeExponents) {
  // One side zero leaves a single power; both zero the identity.
  for (const Nat& e : edge_exponents(*g_)) {
    const Elem x = random_elem();
    const Elem y = random_elem();
    expect_same(*g_, g_->dual_exp(x, e, y, Nat{}), g_->exp(x, e), "x side");
    expect_same(*g_, g_->dual_exp(x, Nat{}, y, e), g_->exp(y, e), "y side");
  }
  const Elem x = random_elem();
  EXPECT_TRUE(g_->is_identity(g_->dual_exp(x, Nat{}, x, Nat{})));
}

TEST_P(MultiExpTest, DualExpTheProtocolShape) {
  // The phase-2 hot path always fuses exactly two terms (ω accumulation,
  // shuffle-hop rerandomization) — the shape that must be airtight. Pair
  // every edge exponent with every other, then random scalars.
  const auto edges = edge_exponents(*g_);
  for (const Nat& e0 : edges) {
    for (const Nat& e1 : edges) {
      const Elem x = random_elem();
      const Elem y = random_elem();
      expect_same(*g_, g_->dual_exp(x, e0, y, e1),
                  naive_product(*g_, x, e0, y, e1), "edges");
    }
  }
  for (int i = 0; i < 8; ++i) {
    const Elem x = random_elem();
    const Elem y = random_elem();
    const Nat ex = g_->random_nonzero_scalar(rng_);
    const Nat ey = g_->random_nonzero_scalar(rng_);
    expect_same(*g_, g_->dual_exp(x, ex, y, ey),
                naive_product(*g_, x, ex, y, ey), "random");
  }
}

TEST_P(MultiExpTest, DualExpOfOneBaseTwiceAddsExponents) {
  // x^a · x^b = x^(a+b): the ladder's table lookups for equal bases.
  const Elem x = random_elem();
  const Nat a = g_->random_nonzero_scalar(rng_);
  const Nat b = g_->random_nonzero_scalar(rng_);
  expect_same(*g_, g_->dual_exp(x, a, x, b), g_->exp(x, Nat::add(a, b)),
              "same base");
}

INSTANTIATE_TEST_SUITE_P(AllGroups, MultiExpTest,
                         ::testing::Values("mock", "schnorr", "ec"),
                         [](const auto& info) { return std::string{info.param}; });

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
