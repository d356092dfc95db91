// Tests for modular arithmetic: Montgomery context, Barrett reduction,
// gcd/invmod/powmod/jacobi/sqrtmod, primality and the Fp field context.
#include <gmpxx.h>
#include <gtest/gtest.h>

#include "group/ec_group.h"
#include "group/group.h"
#include "group/schnorr_group.h"
#include "mpz/fp.h"
#include "mpz/modarith.h"
#include "mpz/mont.h"
#include "mpz/prime.h"
#include "mpz/rng.h"

namespace ppgr::mpz {
namespace {

mpz_class to_gmp(const Nat& n) { return mpz_class{n.to_hex(), 16}; }
Nat from_gmp(const mpz_class& g) { return Nat::from_hex(g.get_str(16)); }

// A handful of moduli covering 1..many limbs, odd.
std::vector<Nat> test_moduli() {
  return {
      Nat{3},
      Nat{65537},
      Nat::from_hex("ffffffffffffffc5"),                      // < 2^64 prime
      Nat::from_hex("100000000000000000000000000000033"),     // 2^128 + 51, prime
      Nat::from_dec("57896044618658097711785492504343953926634992332820282019728792003956564819949"),  // 2^255-19
  };
}

TEST(Mont, RejectsEvenModulus) {
  EXPECT_THROW(MontCtx{Nat{10}}, std::invalid_argument);
  EXPECT_THROW(MontCtx{Nat{1}}, std::invalid_argument);
}

TEST(Mont, RoundTrip) {
  for (const Nat& m : test_moduli()) {
    const MontCtx ctx{m};
    ChaChaRng rng{m.to_limb()};
    for (int i = 0; i < 20; ++i) {
      const Nat a = rng.below(m);
      EXPECT_EQ(ctx.from_mont(ctx.to_mont(a)), a);
    }
  }
}

TEST(Mont, MulMatchesGmp) {
  for (const Nat& m : test_moduli()) {
    const MontCtx ctx{m};
    ChaChaRng rng{m.to_limb() + 1};
    const mpz_class gm = to_gmp(m);
    for (int i = 0; i < 20; ++i) {
      const Nat a = rng.below(m), b = rng.below(m);
      const Nat r = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
      EXPECT_EQ(to_gmp(r), to_gmp(a) * to_gmp(b) % gm);
    }
  }
}

TEST(Mont, ExpMatchesGmp) {
  for (const Nat& m : test_moduli()) {
    const MontCtx ctx{m};
    ChaChaRng rng{m.to_limb() + 2};
    const mpz_class gm = to_gmp(m);
    for (int i = 0; i < 8; ++i) {
      const Nat base = rng.below(m);
      const Nat e = rng.bits(1 + rng.below_u64(300));
      const Nat r = ctx.from_mont(ctx.exp(ctx.to_mont(base), e));
      mpz_class expect;
      const mpz_class gb = to_gmp(base), ge = to_gmp(e);
      mpz_powm(expect.get_mpz_t(), gb.get_mpz_t(), ge.get_mpz_t(),
               gm.get_mpz_t());
      EXPECT_EQ(to_gmp(r), expect);
    }
  }
}

TEST(Mont, ExpEdgeCases) {
  const MontCtx ctx{Nat{101}};
  const Nat g = ctx.to_mont(Nat{5});
  EXPECT_EQ(ctx.from_mont(ctx.exp(g, Nat{})), Nat{1});       // e = 0
  EXPECT_EQ(ctx.from_mont(ctx.exp(g, Nat{1})), Nat{5});      // e = 1
  EXPECT_EQ(ctx.from_mont(ctx.exp(g, Nat{100})), Nat{1});    // Fermat
  EXPECT_EQ(ctx.from_mont(ctx.exp(ctx.to_mont(Nat{}), Nat{9})), Nat{});
}

TEST(Barrett, MatchesDivrem) {
  for (const Nat& m : test_moduli()) {
    const BarrettCtx ctx{m};
    ChaChaRng rng{m.to_limb() + 3};
    for (int i = 0; i < 30; ++i) {
      // a < m^2 as required.
      const Nat a = rng.below(m * m);
      EXPECT_EQ(ctx.reduce(a), a % m);
    }
  }
}

TEST(ModArith, Gcd) {
  EXPECT_EQ(gcd(Nat{12}, Nat{18}), Nat{6});
  EXPECT_EQ(gcd(Nat{}, Nat{5}), Nat{5});
  EXPECT_EQ(gcd(Nat{5}, Nat{}), Nat{5});
  EXPECT_EQ(gcd(Nat{7}, Nat{13}), Nat{1});
  ChaChaRng rng{11};
  for (int i = 0; i < 30; ++i) {
    const Nat a = rng.bits(200), b = rng.bits(180);
    mpz_class g;
    const mpz_class ga = to_gmp(a), gb = to_gmp(b);
    mpz_gcd(g.get_mpz_t(), ga.get_mpz_t(), gb.get_mpz_t());
    EXPECT_EQ(to_gmp(gcd(a, b)), g);
  }
}

TEST(ModArith, InvMod) {
  ChaChaRng rng{12};
  for (const Nat& m : test_moduli()) {
    for (int i = 0; i < 15; ++i) {
      const Nat a = rng.nonzero_below(m);
      const auto inv = invmod(a, m);
      ASSERT_TRUE(inv.has_value());
      EXPECT_EQ(Nat::mul(a, *inv) % m, Nat{1});
    }
  }
  // Non-invertible.
  EXPECT_FALSE(invmod(Nat{6}, Nat{9}).has_value());
  EXPECT_FALSE(invmod(Nat{}, Nat{9}).has_value());
}

TEST(ModArith, PowmodEvenModulus) {
  ChaChaRng rng{13};
  const Nat m = Nat::from_hex("10000000000000000000000");  // even
  for (int i = 0; i < 10; ++i) {
    const Nat b = rng.below(m), e = rng.bits(90);
    mpz_class expect;
    const mpz_class gb = to_gmp(b), ge = to_gmp(e), gm = to_gmp(m);
    mpz_powm(expect.get_mpz_t(), gb.get_mpz_t(), ge.get_mpz_t(), gm.get_mpz_t());
    EXPECT_EQ(to_gmp(powmod(b, e, m)), expect);
  }
}

TEST(ModArith, Jacobi) {
  // (a/p) for prime p equals Legendre; spot-check with Euler's criterion.
  ChaChaRng rng{14};
  const Nat p = Nat::from_hex("ffffffffffffffc5");
  for (int i = 0; i < 40; ++i) {
    const Nat a = rng.nonzero_below(p);
    const Nat euler = powmod(a, Nat::sub(p, Nat{1}).shr(1), p);
    const int expect = euler.is_one() ? 1 : -1;
    EXPECT_EQ(jacobi(a, p), expect);
  }
  EXPECT_EQ(jacobi(Nat{}, Nat{7}), 0);
  EXPECT_EQ(jacobi(Nat{14}, Nat{7}), 0);
  EXPECT_THROW((void)jacobi(Nat{3}, Nat{8}), std::invalid_argument);
}

TEST(ModArith, SqrtMod) {
  ChaChaRng rng{15};
  // Covers both p%4==3 (fast path) and p%4==1 (full Tonelli–Shanks).
  for (const char* ps : {"ffffffffffffffc5", "f7e75fdc469067ffdc4e847c51f452df"}) {
    const Nat p = Nat::from_hex(ps);
    for (int i = 0; i < 25; ++i) {
      const Nat x = rng.below(p);
      const Nat sq = Nat::mul(x, x) % p;
      const auto root = sqrtmod(sq, p);
      ASSERT_TRUE(root.has_value());
      EXPECT_EQ(Nat::mul(*root, *root) % p, sq);
    }
    // A non-residue has no root.
    Nat z{2};
    while (jacobi(z, p) != -1) z += Nat{1};
    EXPECT_FALSE(sqrtmod(z, p).has_value());
  }
}

// ---- Binary kernels (gcd / jacobi / invmod) against GMP ----

Nat schnorr_prime(group::GroupId id) {
  const auto g = group::make_group(id);
  return dynamic_cast<const group::SchnorrGroup&>(*g).modulus();
}

// Odd moduli: a random odd composite at every width from 1 to 48 limbs,
// random primes, a product of two primes and a prime square (so gcd > 1
// inputs are plentiful), and the shipped dl-test-256, P-256, dl-1024 and
// dl-3072 primes.
std::vector<Nat> kernel_moduli() {
  ChaChaRng rng{201};
  std::vector<Nat> out{Nat{1}, Nat{3}, Nat{9}, Nat{15}};
  for (std::size_t limbs = 1; limbs <= 48; ++limbs) {
    Nat c = rng.bits(64 * limbs);
    c.set_bit(64 * limbs - 1, true);
    c.set_bit(0, true);
    out.push_back(std::move(c));
  }
  for (std::size_t bits : {20u, 64u, 65u, 127u, 256u, 512u})
    out.push_back(random_prime(bits, rng));
  const Nat p = random_prime(100, rng), q = random_prime(140, rng);
  out.push_back(Nat::mul(p, q));
  out.push_back(Nat::mul(p, p));
  out.push_back(schnorr_prime(group::GroupId::kDlTest256));
  out.push_back(group::nist_p256().p);
  out.push_back(schnorr_prime(group::GroupId::kDl1024));
  out.push_back(schnorr_prime(group::GroupId::kDl3072));
  return out;
}

// Edge inputs (0, 1, 2, n-1, n, n+1, a > n, a a limb wider than n) plus
// random residues.
std::vector<Nat> kernel_inputs(const Nat& n, ChaChaRng& rng) {
  std::vector<Nat> out{Nat{},
                       Nat{1},
                       Nat{2},
                       Nat::sub(n, Nat{1}),
                       n,
                       Nat::add(n, Nat{1}),
                       Nat::add(Nat::mul(n, Nat{3}), Nat{2}),
                       rng.bits(n.bit_length() + 64)};
  for (int i = 0; i < 24; ++i) out.push_back(rng.below(n));
  return out;
}

TEST(ModArithOracle, JacobiInvModAndGcdMatchGmp) {
  ChaChaRng rng{202};
  std::size_t inverses = 0, non_units = 0;
  for (const Nat& n : kernel_moduli()) {
    const mpz_class gn = to_gmp(n);
    for (const Nat& a : kernel_inputs(n, rng)) {
      const mpz_class ga = to_gmp(a);
      SCOPED_TRACE("a=" + a.to_hex() + " n=" + n.to_hex());
      EXPECT_EQ(jacobi(a, n), mpz_jacobi(ga.get_mpz_t(), gn.get_mpz_t()));
      mpz_class g;
      mpz_gcd(g.get_mpz_t(), ga.get_mpz_t(), gn.get_mpz_t());
      EXPECT_EQ(to_gmp(gcd(a, n)), g);
      if (n.is_one()) continue;  // outside invmod's contract
      mpz_class inv;
      const bool unit =
          mpz_invert(inv.get_mpz_t(), ga.get_mpz_t(), gn.get_mpz_t()) != 0;
      const auto mine = invmod(a, n);
      ASSERT_EQ(mine.has_value(), unit);
      if (unit) {
        EXPECT_EQ(to_gmp(*mine), inv);
        ++inverses;
      } else {
        ++non_units;
      }
    }
  }
  EXPECT_GT(inverses, 1000u);
  EXPECT_GT(non_units, 100u);
}

TEST(ModArithOracle, GcdOfEvenOperandsMatchesGmp) {
  ChaChaRng rng{203};
  for (int i = 0; i < 60; ++i) {
    const Nat a = rng.bits(1 + rng.below_u64(700)).shl(rng.below_u64(130));
    const Nat b = rng.bits(1 + rng.below_u64(700)).shl(rng.below_u64(130));
    mpz_class g;
    const mpz_class ga = to_gmp(a), gb = to_gmp(b);
    mpz_gcd(g.get_mpz_t(), ga.get_mpz_t(), gb.get_mpz_t());
    EXPECT_EQ(to_gmp(gcd(a, b)), g);
  }
}

TEST(ModArithOracle, KernelContracts) {
  EXPECT_THROW((void)invmod(Nat{3}, Nat{10}), std::invalid_argument);
  EXPECT_THROW((void)invmod(Nat{3}, Nat{1}), std::invalid_argument);
  EXPECT_THROW((void)invmod(Nat{3}, Nat{}), std::invalid_argument);
  EXPECT_THROW((void)jacobi(Nat{3}, Nat{}), std::invalid_argument);
  EXPECT_EQ(jacobi(Nat::from_hex("123456789abcdef0123"), Nat{1}), 1);
  // 64 limbs is the widest operand the stack buffers hold.
  const Nat widest = Nat::sub(Nat::pow2(64 * 64), Nat{1});
  EXPECT_EQ(invmod(Nat{2}, widest), Nat::pow2(64 * 64 - 1));
  EXPECT_EQ(jacobi(Nat{1}, widest), 1);
  const Nat wider = Nat::pow2(64 * 64);
  EXPECT_THROW((void)jacobi(wider, Nat{3}), std::length_error);
  EXPECT_THROW((void)invmod(wider, Nat{3}), std::length_error);
  EXPECT_THROW((void)gcd(wider, Nat{3}), std::length_error);
}

TEST(Prime, SmallKnownValues) {
  ChaChaRng rng{16};
  EXPECT_FALSE(is_probable_prime(Nat{}, rng));
  EXPECT_FALSE(is_probable_prime(Nat{1}, rng));
  EXPECT_TRUE(is_probable_prime(Nat{2}, rng));
  EXPECT_TRUE(is_probable_prime(Nat{97}, rng));
  EXPECT_FALSE(is_probable_prime(Nat{100}, rng));
  EXPECT_TRUE(is_probable_prime(Nat{101}, rng));
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(is_probable_prime(Nat{561}, rng));
  // Large known prime 2^255 - 19.
  EXPECT_TRUE(is_probable_prime(
      Nat::from_dec("5789604461865809771178549250434395392663499233282028201972"
                    "8792003956564819949"),
      rng));
  // 2^256 - 1 is composite.
  EXPECT_FALSE(is_probable_prime(Nat::sub(Nat::pow2(256), Nat{1}), rng));
}

TEST(Prime, RandomPrimeHasExactWidthAndIsPrime) {
  ChaChaRng rng{17};
  for (std::size_t bits : {16u, 64u, 128u, 256u}) {
    const Nat p = random_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p, rng));
  }
}

TEST(Prime, SafePrimeStructure) {
  ChaChaRng rng{18};
  const Nat p = random_safe_prime(64, rng);
  EXPECT_EQ(p.bit_length(), 64u);
  EXPECT_TRUE(is_probable_prime(p, rng));
  const Nat q = Nat::sub(p, Nat{1}).shr(1);
  EXPECT_TRUE(is_probable_prime(q, rng));
}

// ---- Fp field context ----

class FpLaws : public ::testing::TestWithParam<const char*> {};

TEST_P(FpLaws, FieldAxioms) {
  const FpCtx f{Nat::from_hex(GetParam())};
  ChaChaRng rng{f.p().to_limb()};
  for (int i = 0; i < 25; ++i) {
    const Nat a = f.random(rng), b = f.random(rng), c = f.random(rng);
    // Commutativity, associativity, distributivity.
    EXPECT_EQ(f.add(a, b), f.add(b, a));
    EXPECT_EQ(f.mul(a, b), f.mul(b, a));
    EXPECT_EQ(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
    EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
    EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
    // Identities and inverses.
    EXPECT_EQ(f.add(a, f.zero()), a);
    EXPECT_EQ(f.mul(a, f.one()), a);
    EXPECT_EQ(f.add(a, f.neg(a)), f.zero());
    EXPECT_EQ(f.sub(a, b), f.add(a, f.neg(b)));
    if (!f.is_zero(a)) {
      EXPECT_EQ(f.mul(a, f.inv(a)), f.one());
      EXPECT_EQ(f.div(f.mul(a, b), a), b);
    }
    EXPECT_EQ(f.sqr(a), f.mul(a, a));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fields, FpLaws,
    ::testing::Values("d",                                    // tiny
                      "ffffffffffffffc5",                     // 64-bit
                      "fffffffffffffffffffffffffffffffeffffffffffffffff"  // P-192 field
                      ));

TEST(Fp, SignedConversionCentering) {
  const FpCtx f{Nat{101}};
  EXPECT_EQ(f.from_centered(f.to_signed(Int{-3})).to_i64(), -3);
  EXPECT_EQ(f.from_centered(f.to_signed(Int{50})).to_i64(), 50);
  EXPECT_EQ(f.from_centered(f.to_signed(Int{-50})).to_i64(), -50);
  EXPECT_EQ(f.from_centered(f.to_signed(Int{0})).to_i64(), 0);
  // 51 wraps to -50 when centered.
  EXPECT_EQ(f.from_centered(f.to(Nat{51})).to_i64(), -50);
}

TEST(Fp, InvZeroThrows) {
  const FpCtx f{Nat{101}};
  EXPECT_THROW((void)f.inv(f.zero()), std::domain_error);
}

TEST(Fp, SqrtInField) {
  const FpCtx f{Nat::from_hex("ffffffffffffffc5")};
  ChaChaRng rng{77};
  for (int i = 0; i < 20; ++i) {
    const Nat x = f.random(rng);
    const auto r = f.sqrt(f.sqr(x));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(f.sqr(*r), f.sqr(x));
  }
}

TEST(Fp, FromGmpHelperIsSane) {
  // Guard the oracle glue itself.
  const mpz_class g{"123456789abcdef", 16};
  EXPECT_EQ(to_gmp(from_gmp(g)), g);
}

}  // namespace
}  // namespace ppgr::mpz
