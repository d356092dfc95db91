// Batched Montgomery inversion (PR 6): FpCtx::inv_many must agree with the
// per-element inverse exactly, reject zero inputs with a typed error naming
// the offending index (the whole batch, not UB or a partial result), and
// the EcGroup::serialize_many built on top of it must emit byte-identical
// canonical encodings to the one-at-a-time path — identity points included,
// since those contribute nothing to the inversion batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "group/metered_group.h"
#include "group/mock_group.h"
#include "mpz/fp.h"
#include "mpz/rng.h"

namespace ppgr::mpz {
namespace {

TEST(BatchInverse, SmallPrimeKat) {
  // Z_13 by hand: inverses of 1..12 are 1 7 9 10 8 11 2 5 3 4 6 12.
  const FpCtx f{Nat{13}};
  const std::uint64_t expected[] = {1, 7, 9, 10, 8, 11, 2, 5, 3, 4, 6, 12};
  std::vector<Nat> xs;
  for (std::uint64_t a = 1; a <= 12; ++a) xs.push_back(f.to(Nat{a}));
  const auto invs = f.inv_many(xs);
  ASSERT_EQ(invs.size(), xs.size());
  for (std::size_t i = 0; i < invs.size(); ++i)
    EXPECT_EQ(f.from(invs[i]), Nat{expected[i]}) << "a = " << (i + 1);
}

TEST(BatchInverse, MatchesPerElementInverse) {
  // Property over a protocol-sized field (the 61-bit Mersenne prime): the
  // batch is a pure optimization, element i equals inv(xs[i]) exactly.
  const FpCtx f{Nat{(std::uint64_t{1} << 61) - 1}};
  ChaChaRng rng{11};
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{17},
                              std::size_t{257}}) {
    std::vector<Nat> xs;
    for (std::size_t i = 0; i < n; ++i) xs.push_back(f.random_nonzero(rng));
    const auto invs = f.inv_many(xs);
    ASSERT_EQ(invs.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(invs[i], f.inv(xs[i])) << "n = " << n << ", i = " << i;
      EXPECT_EQ(f.mul(xs[i], invs[i]), f.one());
    }
  }
}

TEST(BatchInverse, EmptyBatch) {
  const FpCtx f{Nat{13}};
  EXPECT_TRUE(f.inv_many({}).empty());
}

TEST(BatchInverse, ZeroInputRejectedWithIndex) {
  const FpCtx f{Nat{13}};
  ChaChaRng rng{12};
  std::vector<Nat> xs;
  for (std::size_t i = 0; i < 6; ++i) xs.push_back(f.random_nonzero(rng));
  xs[3] = f.zero();
  try {
    (void)f.inv_many(xs);
    FAIL() << "inv_many accepted a zero input";
  } catch (const std::domain_error& e) {
    // Typed error naming the offending position — not UB, not a partial
    // batch.
    EXPECT_NE(std::string{e.what()}.find("index 3"), std::string::npos)
        << e.what();
  }
  // A zero anywhere rejects the whole batch, first and last included.
  xs[3] = f.one();
  xs[0] = f.zero();
  EXPECT_THROW((void)f.inv_many(xs), std::domain_error);
  xs[0] = f.one();
  xs[5] = f.zero();
  EXPECT_THROW((void)f.inv_many(xs), std::domain_error);
}

TEST(BatchSerialize, EcMatchesPerElementIncludingIdentity) {
  // serialize_many over EC normalizes the whole batch with one field
  // inversion; the bytes must equal the one-at-a-time canonical encodings,
  // with identity points (no z to invert) interleaved at the edges and
  // middle of the batch.
  const auto g = group::make_group(group::GroupId::kEcP192);
  ChaChaRng rng{13};
  std::vector<group::Elem> xs;
  xs.push_back(g->identity());
  for (std::size_t i = 0; i < 9; ++i) {
    xs.push_back(g->exp_g(g->random_nonzero_scalar(rng)));
    if (i == 4) xs.push_back(g->identity());
  }
  xs.push_back(g->identity());
  const auto batched = g->serialize_many(xs);
  std::vector<std::uint8_t> looped;
  for (const auto& x : xs) {
    const auto one = g->serialize(x);
    looped.insert(looped.end(), one.begin(), one.end());
  }
  EXPECT_EQ(batched, looped);
  EXPECT_EQ(batched.size(), xs.size() * g->element_bytes());

  // Degenerate batches.
  EXPECT_TRUE(g->serialize_many({}).empty());
  const std::vector<group::Elem> ids{g->identity(), g->identity()};
  EXPECT_EQ(g->serialize_many(ids).size(), 2 * g->element_bytes());
}

TEST(BatchSerialize, DefaultLoopAndMeteredDecorator) {
  // Groups without a batched override fall back to the per-element loop,
  // and the metering decorator keeps reporting one serialization per
  // element — the batch is invisible to the op accounting.
  const group::MockGroup mock{"mock"};
  const group::MeteredGroup metered{mock};
  ChaChaRng rng{14};
  std::vector<group::Elem> xs;
  for (std::size_t i = 0; i < 5; ++i)
    xs.push_back(mock.exp_g(mock.random_nonzero_scalar(rng)));
  runtime::MetricsBuffer buf;
  std::vector<std::uint8_t> batched;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    batched = metered.serialize_many(xs);
  }
  std::vector<std::uint8_t> looped;
  for (const auto& x : xs) {
    const auto one = mock.serialize(x);
    looped.insert(looped.end(), one.begin(), one.end());
  }
  EXPECT_EQ(batched, looped);
  runtime::MetricsRegistry reg;
  reg.absorb(buf);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupSerialize), 5u);
}

}  // namespace
}  // namespace ppgr::mpz
