// Unit + property tests for the arbitrary-precision Nat/Int types.
// GMP (mpz_class) serves as the oracle for randomized cross-checks.
#include <gmpxx.h>
#include <gtest/gtest.h>

#include <utility>

#include "mpz/nat.h"
#include "mpz/rng.h"
#include "mpz/sint.h"

namespace ppgr::mpz {
namespace {

mpz_class to_gmp(const Nat& n) { return mpz_class{n.to_hex(), 16}; }

Nat random_nat(Rng& rng, std::size_t max_bits) {
  return rng.bits(1 + rng.below_u64(max_bits));
}

TEST(Nat, ZeroBasics) {
  const Nat z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_dec(), "0");
  EXPECT_EQ(z.limb_count(), 0u);
  EXPECT_TRUE(z.is_even());
}

TEST(Nat, SingleLimbArithmetic) {
  const Nat a{7}, b{5};
  EXPECT_EQ((a + b).to_limb(), 12u);
  EXPECT_EQ((a - b).to_limb(), 2u);
  EXPECT_EQ((a * b).to_limb(), 35u);
  EXPECT_EQ((a / b).to_limb(), 1u);
  EXPECT_EQ((a % b).to_limb(), 2u);
}

TEST(Nat, AddCarryPropagation) {
  const Nat max64{UINT64_MAX};
  const Nat sum = max64 + Nat{1};
  EXPECT_EQ(sum.bit_length(), 65u);
  EXPECT_EQ(sum.to_hex(), "10000000000000000");
}

TEST(Nat, SubBorrowPropagation) {
  const Nat a = Nat::pow2(128);
  const Nat b{1};
  const Nat d = a - b;
  EXPECT_EQ(d.bit_length(), 128u);
  EXPECT_EQ(d.to_hex(), std::string(32, 'f'));
}

TEST(Nat, SubUnderflowThrows) {
  EXPECT_THROW((void)(Nat{3} - Nat{5}), std::domain_error);
}

TEST(Nat, DivisionByZeroThrows) {
  EXPECT_THROW((void)(Nat{3} / Nat{}), std::domain_error);
}

TEST(Nat, HexRoundTrip) {
  const char* cases[] = {"0", "1", "f", "10", "deadbeef",
                         "123456789abcdef0123456789abcdef"};
  for (const char* c : cases) {
    EXPECT_EQ(Nat::from_hex(c).to_hex(), c);
  }
}

TEST(Nat, HexRejectsBadInput) {
  EXPECT_THROW((void)Nat::from_hex(""), std::invalid_argument);
  EXPECT_THROW((void)Nat::from_hex("xyz"), std::invalid_argument);
}

TEST(Nat, DecRoundTrip) {
  const char* cases[] = {"0", "1", "10", "18446744073709551616",
                         "340282366920938463463374607431768211455"};
  for (const char* c : cases) {
    EXPECT_EQ(Nat::from_dec(c).to_dec(), c);
  }
}

TEST(Nat, BytesRoundTrip) {
  ChaChaRng rng{42};
  for (int i = 0; i < 50; ++i) {
    const Nat a = random_nat(rng, 600);
    const auto bytes = a.to_bytes_be();
    EXPECT_EQ(Nat::from_bytes_be(bytes), a);
  }
}

TEST(Nat, BytesFixedWidthPadding) {
  const Nat a{0xABCD};
  const auto bytes = a.to_bytes_be(8);
  ASSERT_EQ(bytes.size(), 8u);
  EXPECT_EQ(bytes[0], 0u);
  EXPECT_EQ(bytes[6], 0xAB);
  EXPECT_EQ(bytes[7], 0xCD);
  EXPECT_THROW((void)Nat::pow2(64).to_bytes_be(8), std::length_error);
}

TEST(Nat, BitAccess) {
  Nat a;
  a.set_bit(100, true);
  EXPECT_TRUE(a.bit(100));
  EXPECT_FALSE(a.bit(99));
  EXPECT_EQ(a, Nat::pow2(100));
  a.set_bit(100, false);
  EXPECT_TRUE(a.is_zero());
}

TEST(Nat, ShiftIdentities) {
  ChaChaRng rng{7};
  for (int i = 0; i < 40; ++i) {
    const Nat a = random_nat(rng, 500);
    const std::size_t k = rng.below_u64(300);
    EXPECT_EQ(a.shl(k).shr(k), a);
    EXPECT_EQ(a.shl(k), a * Nat::pow2(k));
    EXPECT_EQ(a.shr(k), a / Nat::pow2(k));
  }
}

// ---- randomized cross-checks against GMP ----

class NatVsGmp : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NatVsGmp, AddSubMulDiv) {
  const std::size_t bits = GetParam();
  ChaChaRng rng{bits};
  for (int i = 0; i < 30; ++i) {
    const Nat a = random_nat(rng, bits);
    const Nat b = random_nat(rng, bits);
    const mpz_class ga = to_gmp(a), gb = to_gmp(b);
    EXPECT_EQ(to_gmp(a + b), ga + gb);
    EXPECT_EQ(to_gmp(a * b), ga * gb);
    if (a >= b) {
      EXPECT_EQ(to_gmp(a - b), ga - gb);
    }
    if (!b.is_zero()) {
      const auto [q, r] = Nat::divrem(a, b);
      EXPECT_EQ(to_gmp(q), ga / gb);
      EXPECT_EQ(to_gmp(r), ga % gb);
      EXPECT_EQ(q * b + r, a);  // division identity
      EXPECT_LT(r, b);
    }
  }
}

TEST_P(NatVsGmp, DecimalAgrees) {
  const std::size_t bits = GetParam();
  ChaChaRng rng{bits + 2};
  for (int i = 0; i < 10; ++i) {
    const Nat a = random_nat(rng, bits);
    EXPECT_EQ(a.to_dec(), to_gmp(a).get_str(10));
    EXPECT_EQ(Nat::from_dec(a.to_dec()), a);
  }
}

// From one limb to 128: every width a shipped group uses, and wider.
INSTANTIATE_TEST_SUITE_P(Widths, NatVsGmp,
                         ::testing::Values(8, 64, 200, 1024, 1536, 2048, 4096,
                                           8192));

TEST(Nat, MulMatchesGmpOnUnequalWideOperands) {
  ChaChaRng rng{99};
  // Operands of 22 to 29 limbs each, drawn independently.
  for (int i = 0; i < 20; ++i) {
    const std::size_t bits_a = 64 * (22 + rng.below_u64(8));
    const std::size_t bits_b = 64 * (22 + rng.below_u64(8));
    const Nat a = rng.bits(bits_a), b = rng.bits(bits_b);
    EXPECT_EQ(to_gmp(a * b), to_gmp(a) * to_gmp(b));
  }
}

TEST(Nat, UnbalancedMultiplication) {
  ChaChaRng rng{123};
  const Nat big = rng.bits(64 * 100);
  const Nat small = rng.bits(40);
  EXPECT_EQ(to_gmp(big * small), to_gmp(big) * to_gmp(small));
  EXPECT_EQ(big * Nat{}, Nat{});
  EXPECT_EQ(big * Nat{1}, big);
}

TEST(Nat, DivisionAddBackEdgeCase) {
  // Crafted so Algorithm D's trial quotient needs correction: dividend with
  // pattern B-1 limbs against divisor with high limb just above B/2.
  const Nat u = Nat::from_hex(
      "7fffffffffffffff800000000000000000000000000000000000000000000000");
  const Nat v = Nat::from_hex("800000000000000000000000000000000001");
  const auto [q, r] = Nat::divrem(u, v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
}

TEST(Nat, SmallBufferSpillBoundary) {
  // Nat's limbs live inline up to LimbVec::kInline limbs and spill to the
  // heap beyond; exercise arithmetic that crosses the boundary in both
  // directions so the grow-preserving-contents path and the shrink-back
  // (heap buffer retained, size reduced) path both run.
  const std::size_t edge = LimbVec::kInline * 64;  // bits
  const Nat below = Nat::sub(Nat::pow2(edge), Nat{1});     // kInline limbs
  const Nat above = Nat::add(below, Nat{1});               // kInline + 1
  EXPECT_EQ(below.limb_count(), LimbVec::kInline);
  EXPECT_EQ(above.limb_count(), LimbVec::kInline + 1);
  EXPECT_EQ(to_gmp(Nat::mul(below, below)),
            to_gmp(below) * to_gmp(below));
  // Shrink across the boundary: (2^edge) - 1 drops back to inline size.
  EXPECT_EQ(Nat::sub(above, Nat{1}), below);
  // A heap-sized value reassigned from an inline-sized one.
  Nat v = above;
  v = below;
  EXPECT_EQ(v, below);
  EXPECT_EQ(to_gmp(Nat::add(v, above)), to_gmp(below) + to_gmp(above));
}

TEST(Nat, SmallBufferCopyAndMoveSemantics) {
  const Nat small{42};                         // inline
  const Nat big = Nat::pow2(LimbVec::kInline * 64 + 7);  // heap
  // Copy both ways; source must be unchanged.
  Nat a = big;
  const Nat b = a;
  EXPECT_EQ(a, big);
  EXPECT_EQ(b, big);
  // Move a heap value: the source is reusable (assign a new value).
  Nat c = std::move(a);
  EXPECT_EQ(c, big);
  a = small;  // NOLINT(bugprone-use-after-move): reassignment is the test
  EXPECT_EQ(a, small);
  // Move an inline value.
  Nat d = small;
  Nat e = std::move(d);
  EXPECT_EQ(e, small);
  // Self-assignment through a reference must be a no-op.
  Nat& ref = c;
  c = ref;
  EXPECT_EQ(c, big);
}

// ---- signed Int ----

TEST(Int, ConstructionAndSign) {
  EXPECT_TRUE(Int{}.is_zero());
  EXPECT_FALSE(Int{}.is_negative());
  EXPECT_TRUE(Int{-5}.is_negative());
  EXPECT_FALSE(Int{5}.is_negative());
  const Int neg_zero{Nat{}, true};
  EXPECT_FALSE(neg_zero.is_negative());  // -0 normalizes to +0
  EXPECT_EQ(Int{INT64_MIN}.to_i64(), INT64_MIN);
  EXPECT_EQ(Int{INT64_MIN}.to_dec(), "-9223372036854775808");
}

TEST(Int, Arithmetic) {
  EXPECT_EQ((Int{7} + Int{-10}).to_i64(), -3);
  EXPECT_EQ((Int{-7} + Int{10}).to_i64(), 3);
  EXPECT_EQ((Int{-7} - Int{-10}).to_i64(), 3);
  EXPECT_EQ((Int{-7} * Int{-10}).to_i64(), 70);
  EXPECT_EQ((Int{-7} * Int{10}).to_i64(), -70);
}

TEST(Int, TruncatedDivision) {
  // C semantics: -7 / 2 == -3 rem -1.
  const auto [q, r] = Int::divrem(Int{-7}, Int{2});
  EXPECT_EQ(q.to_i64(), -3);
  EXPECT_EQ(r.to_i64(), -1);
}

TEST(Int, EuclideanMod) {
  EXPECT_EQ(Int{-7}.mod(Nat{5}).to_limb(), 3u);
  EXPECT_EQ(Int{7}.mod(Nat{5}).to_limb(), 2u);
  EXPECT_EQ(Int{-10}.mod(Nat{5}).to_limb(), 0u);
}

TEST(Int, Ordering) {
  EXPECT_LT(Int{-5}, Int{-4});
  EXPECT_LT(Int{-1}, Int{0});
  EXPECT_LT(Int{0}, Int{1});
  EXPECT_GT(Int{100}, Int{-100});
}

TEST(Int, RandomizedVsGmp) {
  ChaChaRng rng{2024};
  auto to_gmp_int = [](const Int& v) {
    mpz_class g = to_gmp(v.magnitude());
    return v.is_negative() ? mpz_class{-g} : g;
  };
  for (int i = 0; i < 60; ++i) {
    const Int a{random_nat(rng, 300), rng.coin()};
    const Int b{random_nat(rng, 300), rng.coin()};
    EXPECT_EQ(to_gmp_int(a + b), to_gmp_int(a) + to_gmp_int(b));
    EXPECT_EQ(to_gmp_int(a - b), to_gmp_int(a) - to_gmp_int(b));
    EXPECT_EQ(to_gmp_int(a * b), to_gmp_int(a) * to_gmp_int(b));
    EXPECT_EQ(Int::cmp(a, b), ::cmp(to_gmp_int(a), to_gmp_int(b)) < 0   ? -1
                              : ::cmp(to_gmp_int(a), to_gmp_int(b)) > 0 ? 1
                                                                        : 0);
  }
}

TEST(Int, FromDec) {
  EXPECT_EQ(Int::from_dec("-123").to_i64(), -123);
  EXPECT_EQ(Int::from_dec("+123").to_i64(), 123);
  EXPECT_EQ(Int::from_dec("0").to_i64(), 0);
}

// ---- RNG sanity ----

TEST(Rng, Deterministic) {
  ChaChaRng a{1}, b{1}, c{2};
  EXPECT_EQ(a.next_u64(), b.next_u64());
  ChaChaRng a2{1};
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, BelowRespectsBound) {
  ChaChaRng rng{3};
  const Nat bound = Nat::from_hex("10000000000000001");
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.below(bound), bound);
  }
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.below_u64(7);
    EXPECT_LT(v, 7u);
  }
}

TEST(Rng, BitsWidth) {
  ChaChaRng rng{4};
  for (std::size_t w : {1u, 7u, 64u, 65u, 300u}) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_LE(rng.bits(w).bit_length(), w);
    }
  }
}

TEST(Rng, NonzeroBelow) {
  ChaChaRng rng{5};
  for (int i = 0; i < 100; ++i) {
    const Nat v = rng.nonzero_below(Nat{2});
    EXPECT_EQ(v, Nat{1});
  }
}

TEST(Rng, ChaChaKnownAnswer) {
  // All-zero key, nonce and counter: the ChaCha20 keystream begins
  // 76 b8 e0 ad a0 f1 3d 90 ... (well-known vector, identical in the djb and
  // RFC 8439 variants because the whole input state below the constants is
  // zero). Little-endian u64 of those first 8 bytes:
  ChaChaRng rng{std::array<std::uint8_t, 32>{}};
  EXPECT_EQ(rng.next_u64(), 0x903df1a0ade0b876ULL);
}

}  // namespace
}  // namespace ppgr::mpz
