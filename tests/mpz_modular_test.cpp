// Tests for modular arithmetic: Montgomery context, invmod, primality and
// the Fp field context (its square roots pinned and checked against GMP),
// plus a GMP oracle for the DL group's canonical wire encoding.
#include <array>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include <gmpxx.h>
#include <gtest/gtest.h>

#include "group/ec_group.h"
#include "group/group.h"
#include "group/schnorr_group.h"
#include "mpz/fp.h"
#include "mpz/ifma_lanes.h"
#include "mpz/modarith.h"
#include "mpz/mont.h"
#include "mpz/prime.h"
#include "mpz/rng.h"

namespace ppgr::mpz {
namespace {

mpz_class to_gmp(const Nat& n) { return mpz_class{n.to_hex(), 16}; }
Nat from_gmp(const mpz_class& g) { return Nat::from_hex(g.get_str(16)); }

Nat schnorr_prime(group::GroupId id) {
  const auto g = group::make_group(id);
  return dynamic_cast<const group::SchnorrGroup&>(*g).modulus();
}

Nat ec_field_prime(group::GroupId id) {
  const auto g = group::make_group(id);
  return dynamic_cast<const group::EcGroup&>(*g).field().p();
}

// 2^256 - 189, the largest prime below 2^256: its top limb is all ones, so
// the Montgomery kernels run at their maximum carry.
Nat max_carry_prime() { return Nat::sub(Nat::pow2(256), Nat{189}); }

// Odd moduli covering 1..48 limbs: small and generic primes plus every
// modulus the library ships (the Schnorr primes and the P-curve fields).
std::vector<Nat> test_moduli() {
  return {
      Nat{3},
      Nat{65537},
      Nat::from_hex("ffffffffffffffc5"),                      // < 2^64 prime
      Nat::from_hex("100000000000000000000000000000033"),     // 2^128 + 51, prime
      Nat::from_dec("57896044618658097711785492504343953926634992332820282019728792003956564819949"),  // 2^255-19
      max_carry_prime(),
      ec_field_prime(group::GroupId::kEcP192),
      ec_field_prime(group::GroupId::kEcP224),
      ec_field_prime(group::GroupId::kEcP256),
      schnorr_prime(group::GroupId::kDlTest256),
      schnorr_prime(group::GroupId::kDl1024),
      schnorr_prime(group::GroupId::kDl3072),
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

TEST(Mont, RejectsModulusWiderThanKernels) {
  const Nat wide = Nat::add(Nat::pow2(64 * MontCtx::kCiosMaxLimbs), Nat{1});
  EXPECT_THROW(MontCtx{wide}, std::length_error);
}

// ---- Raw 4-limb product kernels against GMP ----

mpz_class gmp_from_limbs(const Limb* x, std::size_t k) {
  mpz_class out;
  mpz_import(out.get_mpz_t(), k, -1, sizeof(Limb), 0, 0, x);
  return out;
}

std::array<Limb, 4> limbs4(const mpz_class& x) {
  std::array<Limb, 4> out{};
  mpz_export(out.data(), nullptr, -1, sizeof(Limb), 0, 0, x.get_mpz_t());
  return out;
}

using Kernel4 = void (*)(Limb*, const Limb*, const Limb*, const Limb*, Limb);

// The kernels' reduction constant -m^{-1} mod 2^64, computed by GMP.
Limb n0inv_of(const mpz_class& m) {
  const mpz_class word = mpz_class{1} << 64;
  mpz_class inv;
  mpz_invert(inv.get_mpz_t(), mpz_class{m % word}.get_mpz_t(), word.get_mpz_t());
  return limbs4(word - inv)[0];
}

// An operand whose limbs are drawn from carry-heavy patterns (0, 1, 2,
// 2^63-1, 2^63, 2^64-2, 2^64-1), reduced mod m. Uniform operands almost
// never make a carry chain ripple through an all-ones limb; these do.
mpz_class patterned_below(const mpz_class& m, std::mt19937_64& gen) {
  constexpr std::array<Limb, 7> kPatterns{
      0, 1, 2, (Limb{1} << 63) - 1, Limb{1} << 63, ~Limb{1}, ~Limb{0}};
  std::array<Limb, 4> l{};
  for (auto& x : l) x = kPatterns[gen() % kPatterns.size()];
  return gmp_from_limbs(l.data(), 4) % m;
}

// Directed pairs (hex) that, under 2^256-189, make a multiply pass's low-half
// chain carry out of t[4] into t[5]: that needs a limb of b equal to
// 2^64-1 and is out of reach of uniform and patterned sampling alike. Found
// by modelling the kernel's two carry chains.
constexpr std::array<std::pair<const char*, const char*>, 3> kCarryVectors{{
    {"7fffffffffffffffffffffffffffffff80000000000000008000000000000000",
     "ffffffffffffffffffffffffffffffffffffffffffffffff0000000000000000"},
    {"fffffffffffffffffffffffffffffffffffffffffffffffefffffffffffffffe",
     "ffffffffffffffffffffffffffffffffffffffffffffffff0000000000000002"},
    {"8000000000000000ffffffffffffffff80000000000000008000000000000000",
     "ffffffffffffffffffffffffffffffffffffffffffffffff0000000000000000"},
}};

// Checks `kernel` against a·b·R^{-1} mod m on every pair of the edge
// operands {0, 1, m-1, R mod m, R^2 mod m}, on kCarryVectors, and on
// `random_pairs` uniform pairs below m and as many patterned pairs, for
// every 4-limb shipped modulus plus 2^255-19 and 2^256-189. Includes
// aliased calls (out == a, out == a == b).
void check_kernel4(Kernel4 kernel, std::size_t random_pairs) {
  const std::vector<Nat> moduli{
      schnorr_prime(group::GroupId::kDlTest256),
      ec_field_prime(group::GroupId::kEcP224),
      ec_field_prime(group::GroupId::kEcP256),
      Nat::sub(Nat::pow2(255), Nat{19}),
      max_carry_prime(),
  };
  gmp_randclass gr{gmp_randinit_default};
  gr.seed(401);
  std::mt19937_64 gen{401};
  for (const Nat& mn : moduli) {
    ASSERT_EQ(mn.limb_count(), 4u);
    const mpz_class m = to_gmp(mn);
    const Limb n0 = n0inv_of(m);
    const mpz_class r = mpz_class{1} << 256;
    mpz_class rinv;
    ASSERT_NE(mpz_invert(rinv.get_mpz_t(), r.get_mpz_t(), m.get_mpz_t()), 0);
    const auto ml = limbs4(m);
    const auto check = [&](const mpz_class& a, const mpz_class& b) {
      const auto al = limbs4(a), bl = limbs4(b);
      const mpz_class expect = a * b * rinv % m;
      std::array<Limb, 4> out{};
      kernel(out.data(), al.data(), bl.data(), ml.data(), n0);
      ASSERT_EQ(gmp_from_limbs(out.data(), 4), expect)
          << "m=" << m.get_str(16) << " a=" << a.get_str(16)
          << " b=" << b.get_str(16);
      auto acc = al;
      kernel(acc.data(), acc.data(), bl.data(), ml.data(), n0);
      ASSERT_EQ(acc, out);
      acc = al;
      kernel(acc.data(), acc.data(), acc.data(), ml.data(), n0);
      ASSERT_EQ(gmp_from_limbs(acc.data(), 4), a * a * rinv % m);
    };
    const std::vector<mpz_class> edges{0, 1, m - 1, r % m, r * r % m};
    for (const auto& a : edges)
      for (const auto& b : edges) check(a, b);
    for (const auto& [a, b] : kCarryVectors)
      check(mpz_class{a, 16} % m, mpz_class{b, 16} % m);
    for (std::size_t i = 0; i < random_pairs; ++i) {
      check(gr.get_z_range(m), gr.get_z_range(m));
      check(patterned_below(m, gen), patterned_below(m, gen));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MontKernel, PortableFourLimbMatchesGmp) {
  check_kernel4(
      [](Limb* out, const Limb* a, const Limb* b, const Limb* m, Limb n0) {
        mont_mul<4>(out, a, b, m, n0);
      },
      20000);
}

TEST(MontKernel, AdxFourLimbMatchesGmp) {
  if (!cpu_has_mulx_adx()) GTEST_SKIP() << "CPU lacks BMI2/ADX";
  check_kernel4(&mont_mul4_adx, 20000);
}

TEST(MontKernel, RuntimeWidthMatchesFixedWidth) {
  // The runtime-width instance serves every width above 4 limbs; at 1 to 4
  // limbs it must agree with the unrolled ones.
  gmp_randclass gr{gmp_randinit_default};
  gr.seed(402);
  for (const Nat& mn : {Nat::sub(Nat::pow2(61), Nat{1}),
                        Nat::sub(Nat::pow2(127), Nat{1}),
                        ec_field_prime(group::GroupId::kEcP192),
                        ec_field_prime(group::GroupId::kEcP256)}) {
    const std::size_t k = mn.limb_count();
    const mpz_class m = to_gmp(mn);
    const Limb n0 = n0inv_of(m);
    const auto ml = limbs4(m);
    for (int i = 0; i < 2000; ++i) {
      const auto al = limbs4(gr.get_z_range(m)), bl = limbs4(gr.get_z_range(m));
      std::array<Limb, 4> fixed{}, runtime{};
      const auto fixed_mul = k == 1   ? mont_mul<1>
                             : k == 2 ? mont_mul<2>
                             : k == 3 ? mont_mul<3>
                                      : mont_mul<4>;
      fixed_mul(fixed.data(), al.data(), bl.data(), ml.data(), n0, k);
      mont_mul<0>(runtime.data(), al.data(), bl.data(), ml.data(), n0, k);
      ASSERT_EQ(fixed, runtime);
    }
  }
}

// ---- exp / dual_exp ladders against mpz_powm ----

mpz_class powm(const mpz_class& b, const mpz_class& e, const mpz_class& m) {
  mpz_class out;
  mpz_powm(out.get_mpz_t(), b.get_mpz_t(), e.get_mpz_t(), m.get_mpz_t());
  return out;
}

// One shipped modulus per ladder instance: P-192 (3 limbs), dl-test-256
// (4), dl-1024 (16) and dl-3072 (48), each with its group order as the
// "exponent = q" case.
struct LadderCase {
  group::GroupId id;
  Nat m;
};

std::vector<LadderCase> ladder_cases() {
  return {
      {group::GroupId::kEcP192, ec_field_prime(group::GroupId::kEcP192)},
      {group::GroupId::kDlTest256, schnorr_prime(group::GroupId::kDlTest256)},
      {group::GroupId::kDl1024, schnorr_prime(group::GroupId::kDl1024)},
      {group::GroupId::kDl3072, schnorr_prime(group::GroupId::kDl3072)},
  };
}

TEST(MontLadder, ExpAndDualExpMatchPowm) {
  ChaChaRng rng{403};
  for (const auto& c : ladder_cases()) {
    const MontCtx ctx{c.m};
    const mpz_class m = to_gmp(c.m);
    const Nat q = group::make_group(c.id)->order();
    const std::size_t bits = c.m.bit_length();
    // Exponents: zero, one, the group order, random full-width ones and
    // ones wider than the modulus.
    const std::vector<Nat> exps{Nat{}, Nat{1}, q, rng.bits(bits),
                                rng.bits(bits + 1 + rng.below_u64(200))};
    // Bases: one, m-1 and random residues.
    const std::vector<Nat> bases{Nat{1}, Nat::sub(c.m, Nat{1}),
                                 rng.nonzero_below(c.m),
                                 rng.nonzero_below(c.m)};
    for (const Nat& b : bases) {
      const Nat bm = ctx.to_mont(b);
      for (const Nat& e : exps) {
        EXPECT_EQ(to_gmp(ctx.from_mont(ctx.exp(bm, e))),
                  powm(to_gmp(b), to_gmp(e), m))
            << "limbs=" << ctx.limbs() << " e=" << e.to_hex();
      }
    }
    const std::vector<std::pair<Nat, Nat>> pairs{{bases[0], bases[2]},
                                                 {bases[2], bases[3]}};
    for (const auto& [x, y] : pairs)
      for (const Nat& ex : exps)
        for (const Nat& ey : {exps[0], exps[2], exps[4]}) {
          const mpz_class expect = powm(to_gmp(x), to_gmp(ex), m) *
                                   powm(to_gmp(y), to_gmp(ey), m) % m;
          EXPECT_EQ(to_gmp(ctx.from_mont(
                        ctx.dual_exp(ctx.to_mont(x), ex, ctx.to_mont(y), ey))),
                    expect)
              << "limbs=" << ctx.limbs() << " ex=" << ex.to_hex()
              << " ey=" << ey.to_hex();
        }
  }
}

// ---- the fixed 1- and 2-limb kernels against GMP ----

// 1-limb moduli: the SS framework's field for 35-bit betas (the 37-bit
// prime core::ss_field_for_beta_bits(35) draws) and 2^61 - 1; 2-limb:
// 2^127 - 1.
std::vector<Nat> narrow_moduli() {
  return {Nat::from_hex("143d53faa7"), Nat::sub(Nat::pow2(61), Nat{1}),
          Nat::sub(Nat::pow2(127), Nat{1})};
}

TEST(MontNarrow, MulExpDualExpMatchGmp) {
  ChaChaRng rng{407};
  for (const Nat& mn : narrow_moduli()) {
    const MontCtx ctx{mn};
    ASSERT_EQ(ctx.limbs(), mn.bit_length() > 64 ? 2u : 1u);
    const mpz_class m = to_gmp(mn);
    const Nat pm1 = Nat::sub(mn, Nat{1});
    // Operands: the edges 0, 1 and p-1, and random residues.
    std::vector<Nat> xs{Nat{}, Nat{1}, pm1};
    for (int i = 0; i < 5; ++i) xs.push_back(rng.below(mn));
    const std::vector<Nat> exps{Nat{},
                                Nat{1},
                                pm1,
                                Nat::sub(mn, Nat{2}),
                                rng.bits(mn.bit_length()),
                                rng.bits(mn.bit_length() + 70)};
    for (const Nat& a : xs) {
      const Nat am = ctx.to_mont(a);
      for (const Nat& b : xs)
        EXPECT_EQ(to_gmp(ctx.from_mont(ctx.mul(am, ctx.to_mont(b)))),
                  to_gmp(a) * to_gmp(b) % m)
            << mn.to_hex() << " " << a.to_hex() << "*" << b.to_hex();
      for (const Nat& e : exps)
        EXPECT_EQ(to_gmp(ctx.from_mont(ctx.exp(am, e))),
                  powm(to_gmp(a), to_gmp(e), m))
            << mn.to_hex() << " " << a.to_hex() << "^" << e.to_hex();
      const Nat& y = xs.back();
      for (const Nat& ex : exps)
        for (const Nat& ey : {exps[0], exps[2], exps[5]})
          EXPECT_EQ(to_gmp(ctx.from_mont(
                        ctx.dual_exp(am, ex, ctx.to_mont(y), ey))),
                    powm(to_gmp(a), to_gmp(ex), m) *
                        powm(to_gmp(y), to_gmp(ey), m) % m)
              << mn.to_hex() << " " << a.to_hex() << "^" << ex.to_hex();
    }
  }
}

TEST(MontNarrow, ExpManyAndInvManyMatchGmp) {
  ChaChaRng rng{408};
  for (const Nat& mn : narrow_moduli()) {
    const MontCtx ctx{mn};
    const mpz_class m = to_gmp(mn);
    const Nat pm1 = Nat::sub(mn, Nat{1});
    // Nonzero residues with the edges 1 and p-1 among them (inv_many's
    // domain); exp_many also gets zero bases.
    std::vector<Nat> xs, exps;
    for (std::size_t i = 0; i < 19; ++i) {
      const Nat x = i % 6 == 0   ? Nat{1}
                    : i % 6 == 3 ? pm1
                                 : rng.nonzero_below(mn);
      xs.push_back(ctx.to_mont(x));
      exps.push_back(i % 5 == 0   ? Nat{}
                     : i % 5 == 1 ? pm1
                                  : rng.bits(1 + i * 7));
    }
    std::vector<Nat> inv(xs.size());
    ctx.inv_many(xs, inv);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      mpz_class expect;
      const mpz_class x = to_gmp(ctx.from_mont(xs[i]));
      ASSERT_NE(mpz_invert(expect.get_mpz_t(), x.get_mpz_t(), m.get_mpz_t()),
                0);
      EXPECT_EQ(to_gmp(ctx.from_mont(inv[i])), expect)
          << mn.to_hex() << " " << i;
    }
    xs[4] = Nat{};
    std::vector<Nat> got(xs.size());
    ctx.exp_many(xs, exps, got);
    for (std::size_t i = 0; i < xs.size(); ++i)
      EXPECT_EQ(to_gmp(ctx.from_mont(got[i])),
                powm(to_gmp(ctx.from_mont(xs[i])), to_gmp(exps[i]), m))
          << mn.to_hex() << " " << i;
    EXPECT_THROW(ctx.inv_many(xs, got), std::domain_error);
  }
}

// add_limbs / sub_limbs / mul_add_limbs on every kernel width: the fixed 1-
// to 4-limb ones (and the 4-limb mulx/adx one where the CPU has it) and the
// runtime-width one at 16 and 48 limbs, over `count` residues at once.
TEST(MontLimbs, AddSubAndMulAddMatchGmp) {
  std::vector<Nat> moduli = narrow_moduli();
  for (const Nat& m : test_moduli())
    if (m.bit_length() > 64) moduli.push_back(m);
  ChaChaRng rng{409};
  for (const Nat& mn : moduli) {
    const MontCtx ctx{mn};
    const std::size_t k = ctx.limbs(), count = 6;
    const mpz_class m = to_gmp(mn);
    const Nat pm1 = Nat::sub(mn, Nat{1});
    // Residue i of a and b: the edges 0, 1, p-1 first, random ones after.
    std::vector<Limb> a(count * k), b(count * k), s(k);
    std::vector<mpz_class> ga, gb;
    const auto put = [&](std::vector<Limb>& v, std::size_t i, const Nat& x) {
      for (std::size_t j = 0; j < k; ++j) v[i * k + j] = x.limb(j);
      return to_gmp(x);
    };
    const Nat edges[] = {Nat{}, Nat{1}, pm1};
    for (std::size_t i = 0; i < count; ++i) {
      ga.push_back(put(a, i, i < 3 ? edges[i] : rng.below(mn)));
      gb.push_back(put(b, i, i < 3 ? edges[2 - i] : rng.below(mn)));
    }
    const mpz_class gs = put(s, 0, rng.below(mn));
    const mpz_class rinv = [&] {
      mpz_class r = mpz_class{1} << (64 * k), inv;
      mpz_invert(inv.get_mpz_t(), r.get_mpz_t(), m.get_mpz_t());
      return inv;
    }();
    std::vector<Limb> sum(count * k), diff(count * k), acc = a;
    ctx.add_limbs(sum.data(), a.data(), b.data(), count);
    ctx.sub_limbs(diff.data(), a.data(), b.data(), count);
    ctx.mul_add_limbs(acc.data(), s.data(), b.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto at = [&](const std::vector<Limb>& v) {
        return gmp_from_limbs(&v[i * k], k);
      };
      EXPECT_EQ(at(sum), (ga[i] + gb[i]) % m) << mn.to_hex() << " " << i;
      EXPECT_EQ(at(diff), ((ga[i] - gb[i]) % m + m) % m)
          << mn.to_hex() << " " << i;
      // Montgomery form: s * b carries one factor R^{-1}.
      EXPECT_EQ(at(acc), (ga[i] + gs * gb[i] % m * rinv) % m)
          << mn.to_hex() << " " << i;
    }
    // In place.
    ctx.add_limbs(a.data(), a.data(), b.data(), count);
    EXPECT_EQ(a, sum) << mn.to_hex();
  }
}

// ---- batch ladders (exp_many / dual_exp_many) against mpz_powm ----

// The 4-limb moduli the batch ladders run 8 lanes at a time on IFMA hosts:
// every shipped one plus 2^256-189, each with the exponent playing "q" (the
// group order for the shipped ones, m-1 for 2^256-189).
std::vector<std::pair<Nat, Nat>> batch_moduli() {
  const auto with_order = [](group::GroupId id, const Nat& m) {
    return std::pair{m, group::make_group(id)->order()};
  };
  const Nat maxc = max_carry_prime();
  return {
      with_order(group::GroupId::kDlTest256,
                 schnorr_prime(group::GroupId::kDlTest256)),
      with_order(group::GroupId::kEcP224,
                 ec_field_prime(group::GroupId::kEcP224)),
      with_order(group::GroupId::kEcP256,
                 ec_field_prime(group::GroupId::kEcP256)),
      {maxc, Nat::sub(maxc, Nat{1})},
  };
}

// This CPU's AVX-512 IFMA support, read from CPUID independently of mont.cpp.
bool host_has_ifma() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512ifma");
#else
  return false;
#endif
}

TEST(MontBatch, FourLimbModuliTakeTheEightLanePathOnIfmaHosts) {
  // Only this assertion depends on the host; the oracle below runs on
  // whichever path the host takes.
  if (!host_has_ifma()) GTEST_SKIP() << "CPU lacks AVX-512 IFMA";
  for (const auto& [m, q] : batch_moduli())
    EXPECT_EQ(MontCtx{m}.batch_lanes(), 8u) << m.to_hex();
  // Every other width stays on the scalar ladders.
  EXPECT_EQ(MontCtx{ec_field_prime(group::GroupId::kEcP192)}.batch_lanes(), 1u);
  EXPECT_EQ(MontCtx{schnorr_prime(group::GroupId::kDl1024)}.batch_lanes(), 1u);
}

TEST(MontBatch, ExpManyAndDualExpManyMatchPowmPerLane) {
  ChaChaRng rng{404};
  for (const auto& [mn, q] : batch_moduli()) {
    const MontCtx ctx{mn};
    ASSERT_EQ(ctx.batch_lanes(), host_has_ifma() ? 8u : 1u);
    const mpz_class m = to_gmp(mn);
    const std::size_t bits = mn.bit_length();
    // Per-lane exponent shapes, cycled through the batch so one vector mixes
    // widths: random full-width, zero, exactly q, q + small, wider than the
    // modulus, short, one, and >= q by a full-width amount.
    const auto exponent = [&](std::size_t i) -> Nat {
      switch (i % 8) {
        case 0: return rng.bits(bits);
        case 1: return Nat{};
        case 2: return q;
        case 3: return Nat::add(q, Nat{rng.below_u64(1000)});
        case 4: return rng.bits(bits + 1 + rng.below_u64(200));
        case 5: return rng.bits(1 + rng.below_u64(64));
        case 6: return Nat{1};
        default: return Nat::add(q, rng.bits(bits));
      }
    };
    // Montgomery bases: one, -one, and random residues.
    const Nat one = ctx.one_mont(), minus_one = Nat::sub(mn, one);
    const auto base = [&](std::size_t i) -> Nat {
      if (i % 11 == 0) return one;
      if (i % 11 == 5) return minus_one;
      return ctx.to_mont(rng.nonzero_below(mn));
    };
    // Each call writes into a span between sentinel residues, which must
    // keep their value, and reports the elements its lanes set: on the
    // lanes all but a last remainder below kPadFrom.
    const auto guarded = [&](std::size_t n, const auto& run) {
      constexpr std::size_t kGuard = 16;
      const Nat sentinel{0x5e5e};
      std::vector<Nat> buf(n + 2 * kGuard, sentinel);
      const std::size_t set = run(std::span<Nat>(buf).subspan(kGuard, n));
      const std::size_t on_lanes = n % 8 >= lanes::kPadFrom ? n : n - n % 8;
      EXPECT_EQ(set, ctx.batch_lanes() == 8 ? on_lanes : 0u) << "n=" << n;
      for (std::size_t i = 0; i < kGuard; ++i) {
        EXPECT_EQ(buf[i], sentinel) << "guard before out, " << i;
        EXPECT_EQ(buf[kGuard + n + i], sentinel) << "guard after out, " << i;
      }
      return std::vector<Nat>(buf.begin() + kGuard, buf.begin() + kGuard + n);
    };
    const auto check = [&](const std::vector<Nat>& xs,
                           const std::vector<Nat>& exs,
                           const std::vector<Nat>& ys,
                           const std::vector<Nat>& eys) {
      const std::size_t n = xs.size();
      const std::vector<Nat> got = guarded(n, [&](std::span<Nat> out) {
        return ctx.exp_many(xs, exs, out);
      });
      const std::vector<Nat> got2 = guarded(n, [&](std::span<Nat> out) {
        return ctx.dual_exp_many(xs, exs, ys, eys, out);
      });
      for (std::size_t i = 0; i < n; ++i) {
        const mpz_class x = to_gmp(ctx.from_mont(xs[i]));
        const mpz_class y = to_gmp(ctx.from_mont(ys[i]));
        // Fully reduced residues, equal to the scalar ladders' ...
        ASSERT_LT(to_gmp(got[i]), m);
        ASSERT_LT(to_gmp(got2[i]), m);
        ASSERT_EQ(got[i], ctx.exp(xs[i], exs[i])) << "lane " << i;
        ASSERT_EQ(got2[i], ctx.dual_exp(xs[i], exs[i], ys[i], eys[i]))
            << "lane " << i;
        // ... and to GMP's powers.
        ASSERT_EQ(to_gmp(ctx.from_mont(got[i])), powm(x, to_gmp(exs[i]), m))
            << "m=" << mn.to_hex() << " n=" << n << " lane " << i
            << " e=" << exs[i].to_hex();
        ASSERT_EQ(to_gmp(ctx.from_mont(got2[i])),
                  powm(x, to_gmp(exs[i]), m) * powm(y, to_gmp(eys[i]), m) % m)
            << "m=" << mn.to_hex() << " n=" << n << " lane " << i;
      }
      // In place: out[i] may be its own base.
      std::vector<Nat> inplace = xs;
      ctx.exp_many(inplace, exs, inplace);
      EXPECT_EQ(inplace, got);
      inplace = xs;
      ctx.dual_exp_many(inplace, exs, ys, eys, inplace);
      EXPECT_EQ(inplace, got2);
    };
    // Sizes around the split into pairs of 8-lane batches, single batches,
    // padded last batches and a scalar remainder of one (2 and 7 padded,
    // 15 = a pair padded from 7, 23 = 16 + a padded 7, 24 = 16 + 8,
    // 33 = 32 + 1, 35 = 32 + a padded 3).
    for (const std::size_t n :
         {0, 1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 35, 525}) {
      std::vector<Nat> xs, ys, exs, eys;
      for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(base(i));
        ys.push_back(base(i + 3));
        exs.push_back(exponent(i));
        eys.push_back(exponent(i + 5));
      }
      check(xs, exs, ys, eys);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Zero in every lane of a full vector and its tail.
    {
      std::vector<Nat> xs, ys;
      for (std::size_t i = 0; i < 9; ++i) {
        xs.push_back(base(i + 1));
        ys.push_back(base(i + 2));
      }
      check(xs, std::vector<Nat>(9), ys, std::vector<Nat>(9));
    }
  }
}

#if defined(__x86_64__)
#pragma GCC diagnostic push
// GCC 12 flags the deliberate self-initialization in _mm512_undefined_epi32,
// which the shift intrinsics use (GCC bug 105593).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Eight lane values through asq8 and through amm8(a, a).
PPGR_IFMA void lane_square(const LaneConsts& c, const lanes::LaneTable& a,
                           lanes::LaneTable& sq, lanes::LaneTable& prod) {
  const lanes::Lane5 m = lanes::broadcast(c.m);
  const __m512i k0 = _mm512_set1_epi64(static_cast<long long>(c.k0));
  const lanes::Lane5 x = lanes::load5(a);
  lanes::Lane5 r;
  lanes::asq8(r, x, m, k0);
  lanes::store5(sq, r);
  lanes::amm8(r, x, x, m, k0);
  lanes::store5(prod, r);
}
#pragma GCC diagnostic pop
#endif

// asq8 against GMP: for a < 2m it returns a value below 2m, congruent to
// a^2 * 2^-260 mod m, with limbs 0-3 below 2^52, and the same limbs as
// amm8(a, a). Random a < 2m and the edges 0, 1, m - 1, m, 2m - 1, on every
// 4-limb modulus that runs the lanes.
TEST(MontBatch, LaneSquareMatchesGmp) {
  if (!host_has_ifma()) GTEST_SKIP() << "CPU lacks AVX-512 IFMA";
#if defined(__x86_64__)
  ChaChaRng rng{405};
  for (const auto& [mn, q] : batch_moduli()) {
    const MontCtx ctx{mn};
    ASSERT_EQ(ctx.batch_lanes(), 8u);
    const LaneConsts c = lanes::lane_consts(mn, ctx.one_mont(), 4);
    const mpz_class m = to_gmp(mn);
    const mpz_class two_m = 2 * m;
    mpz_class r_inv;  // 2^-260 mod m
    const mpz_class r = mpz_class{1} << 260;
    ASSERT_NE(mpz_invert(r_inv.get_mpz_t(), r.get_mpz_t(), m.get_mpz_t()), 0);
    std::vector<mpz_class> as{0, 1, m - 1, m, two_m - 1};
    while (as.size() < 8 * 40) as.push_back(to_gmp(rng.below(from_gmp(two_m))));
    for (std::size_t v = 0; v < as.size(); v += lanes::kLanes) {
      alignas(64) lanes::LaneTable a = {}, sq, prod;
      for (std::size_t l = 0; l < lanes::kLanes && v + l < as.size(); ++l)
        for (std::size_t j = 0; j < lanes::kLimbs52; ++j) {
          const mpz_class limb = (as[v + l] >> (52 * j)) & lanes::kMask52;
          a[j][l] = limb.get_ui();
        }
      lane_square(c, a, sq, prod);
      for (std::size_t l = 0; l < lanes::kLanes && v + l < as.size(); ++l) {
        const mpz_class& x = as[v + l];
        mpz_class got = 0;
        for (std::size_t j = lanes::kLimbs52; j-- > 0;) {
          if (j < 4) {
            ASSERT_LE(sq[j][l], lanes::kMask52) << "limb " << j;
          }
          got = (got << 52) + sq[j][l];
          ASSERT_EQ(sq[j][l], prod[j][l]) << "a=" << x.get_str(16);
        }
        ASSERT_LT(got, two_m) << "a=" << x.get_str(16);
        ASSERT_EQ(mpz_class{got % m}, mpz_class{x * x * r_inv % m})
            << "m=" << mn.to_hex() << " a=" << x.get_str(16);
      }
    }
  }
#endif
}

TEST(MontBatch, RejectsMismatchedSpans) {
  const MontCtx ctx{schnorr_prime(group::GroupId::kDlTest256)};
  std::vector<Nat> three(3, ctx.one_mont()), two(2, Nat{1}), out(3);
  EXPECT_THROW(ctx.exp_many(three, two, out), std::invalid_argument);
  EXPECT_THROW(ctx.dual_exp_many(three, three, three, two, out),
               std::invalid_argument);
}

// Montgomery's trick against GMP's mpz_invert, element by element, through
// MontCtx::inv_many and SchnorrGroup::inv_many: batch sizes around the
// 70-element compare circuit, with the identity's two representatives and
// the generator among random residues.
TEST(MontBatch, InvManyMatchesMpzInvertPerElement) {
  ChaChaRng rng{406};
  for (const auto id : {group::GroupId::kDlTest256, group::GroupId::kDl1024}) {
    const auto g = group::make_group(id);
    const auto& sg = dynamic_cast<const group::SchnorrGroup&>(*g);
    const Nat& pn = sg.modulus();
    const MontCtx ctx{pn};
    const mpz_class p = to_gmp(pn);
    const Nat one = ctx.one_mont();
    const std::array<Nat, 3> fixed{one, Nat::sub(pn, one), g->generator().a};
    for (const std::size_t n : {0, 1, 2, 8, 70, 71}) {
      std::vector<Nat> xs;
      for (std::size_t i = 0; i < n; ++i)
        xs.push_back(i % 5 < fixed.size() && i / 5 % 2 == 0
                         ? fixed[i % 5]
                         : ctx.to_mont(rng.nonzero_below(pn)));
      std::vector<Nat> got(n);
      ctx.inv_many(xs, got);
      std::vector<group::Elem> elems, got_elems(n);
      for (const Nat& x : xs) elems.push_back(group::Elem{.a = x});
      sg.inv_many(elems, got_elems);
      for (std::size_t i = 0; i < n; ++i) {
        mpz_class expect;
        const mpz_class x = to_gmp(ctx.from_mont(xs[i]));
        ASSERT_NE(mpz_invert(expect.get_mpz_t(), x.get_mpz_t(), p.get_mpz_t()),
                  0);
        ASSERT_LT(to_gmp(got[i]), p);
        ASSERT_EQ(to_gmp(ctx.from_mont(got[i])), expect)
            << g->name() << " n=" << n << " element " << i;
        ASSERT_EQ(got_elems[i].a, got[i]) << g->name() << " element " << i;
        ASSERT_EQ(got_elems[i].a, sg.inv(elems[i]).a)
            << g->name() << " element " << i;
      }
    }
  }
}

TEST(MontBatch, InvManyRejectsMismatchedSpansAndSingularInputs) {
  const auto g = group::make_group(group::GroupId::kDlTest256);
  const MontCtx ctx{dynamic_cast<const group::SchnorrGroup&>(*g).modulus()};
  std::vector<Nat> three(3, ctx.one_mont()), two(2);
  EXPECT_THROW(ctx.inv_many(three, two), std::invalid_argument);
  std::vector<group::Elem> elems(3, g->generator()), out(2);
  EXPECT_THROW(g->inv_many(elems, out), std::invalid_argument);
  // A zero anywhere leaves the product without an inverse.
  three[1] = Nat{};
  std::vector<Nat> out3(3);
  EXPECT_THROW(ctx.inv_many(three, out3), std::domain_error);
  // A shared factor with a composite modulus does too.
  const MontCtx composite{Nat{15}};
  const std::vector<Nat> xs{composite.to_mont(Nat{2}),
                            composite.to_mont(Nat{3})};
  std::vector<Nat> out2(2);
  EXPECT_THROW(composite.inv_many(xs, out2), std::domain_error);
}

// ---- the DL wire encoding against GMP ----

// The canonical encoding of the class {v, p - v}: min(v, p - v), read from
// the serialized bytes as a plain big-endian integer.
mpz_class canonical(const mpz_class& v, const mpz_class& p) {
  return v <= p - v ? v : mpz_class{p - v};
}

mpz_class wire_value(const group::Group& g, const group::Elem& x) {
  const auto bytes = g.serialize(x);
  EXPECT_EQ(bytes.size(), g.element_bytes());
  return to_gmp(Nat::from_bytes_be(bytes));
}

// Every element, whatever representative the group computed with, goes on
// the wire as min(v, p - v) of its value v in Z_p*, computed here by GMP
// alone: generator powers, and mul / exp / dual_exp / inv of elements
// decoded from non-residue representatives.
TEST(SchnorrEncodingOracle, SerializeIsCanonicalAbsoluteValue) {
  ChaChaRng rng{405};
  for (const auto id : {group::GroupId::kDlTest256, group::GroupId::kDl1024}) {
    const auto g = group::make_group(id);
    const Nat& pn = dynamic_cast<const group::SchnorrGroup&>(*g).modulus();
    const Nat& qn = g->order();
    const mpz_class p = to_gmp(pn);
    const auto nonresidue = [&] {
      for (;;) {
        const Nat z = rng.nonzero_below(qn);
        if (mpz_jacobi(to_gmp(z).get_mpz_t(), p.get_mpz_t()) == -1) return z;
      }
    };
    for (int i = 0; i < 64; ++i) {
      const Nat s = g->random_scalar(rng);
      const Nat t = g->random_scalar(rng);
      const mpz_class gs = to_gmp(s), gt = to_gmp(t);
      ASSERT_EQ(wire_value(*g, g->exp_g(s)), canonical(powm(4, gs, p), p))
          << g->name() << " s=" << s.to_hex();
      const Nat zn = nonresidue(), wn = nonresidue();
      const mpz_class z = to_gmp(zn), w = to_gmp(wn);
      const std::size_t len = g->element_bytes();
      const group::Elem x = g->deserialize(zn.to_bytes_be(len));
      const group::Elem y = g->deserialize(wn.to_bytes_be(len));
      ASSERT_EQ(wire_value(*g, g->mul(x, y)), canonical(z * w % p, p))
          << g->name() << " z=" << zn.to_hex() << " w=" << wn.to_hex();
      ASSERT_EQ(wire_value(*g, g->exp(x, s)), canonical(powm(z, gs, p), p))
          << g->name() << " z=" << zn.to_hex() << " s=" << s.to_hex();
      ASSERT_EQ(wire_value(*g, g->dual_exp(x, s, y, t)),
                canonical(powm(z, gs, p) * powm(w, gt, p) % p, p))
          << g->name() << " z=" << zn.to_hex() << " w=" << wn.to_hex();
      mpz_class zinv;
      mpz_invert(zinv.get_mpz_t(), z.get_mpz_t(), p.get_mpz_t());
      ASSERT_EQ(wire_value(*g, g->inv(x)), canonical(zinv, p))
          << g->name() << " z=" << zn.to_hex();
    }
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

// ---- The binary invmod kernel against GMP ----

// Odd moduli: a random odd composite at every width from 1 to 48 limbs,
// random primes, a product of two primes and a prime square (so non-unit
// inputs are plentiful), and the shipped dl-test-256, P-256, dl-1024 and
// dl-3072 primes.
std::vector<Nat> kernel_moduli() {
  ChaChaRng rng{201};
  std::vector<Nat> out{Nat{3}, Nat{9}, Nat{15}};
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

TEST(ModArithOracle, InvModMatchesGmp) {
  ChaChaRng rng{202};
  std::size_t inverses = 0, non_units = 0;
  for (const Nat& n : kernel_moduli()) {
    const mpz_class gn = to_gmp(n);
    for (const Nat& a : kernel_inputs(n, rng)) {
      const mpz_class ga = to_gmp(a);
      SCOPED_TRACE("a=" + a.to_hex() + " n=" + n.to_hex());
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

TEST(ModArithOracle, KernelContracts) {
  EXPECT_THROW((void)invmod(Nat{3}, Nat{10}), std::invalid_argument);
  EXPECT_THROW((void)invmod(Nat{3}, Nat{1}), std::invalid_argument);
  EXPECT_THROW((void)invmod(Nat{3}, Nat{}), std::invalid_argument);
  // 64 limbs is the widest operand the stack buffers hold.
  const Nat widest = Nat::sub(Nat::pow2(64 * 64), Nat{1});
  EXPECT_EQ(invmod(Nat{2}, widest), Nat::pow2(64 * 64 - 1));
  const Nat wider = Nat::pow2(64 * 64);
  EXPECT_THROW((void)invmod(wider, Nat{3}), std::length_error);
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

// Square-root fields: the secret-sharing sort's 37-bit field (p ≡ 7 mod 8,
// ss_field_for_beta_bits(35)), the 1-limb 2^64 - 2^32 + 1 (p - 1 = 2^32·q),
// P-224's field (p - 1 = 2^96·q, the deepest Tonelli–Shanks loop) and
// P-256's (p ≡ 3 mod 4).
std::vector<Nat> sqrt_fields() {
  return {Nat::from_hex("143d53faa7"), Nat::from_hex("ffffffff00000001"),
          group::nist_p224().p, group::nist_p256().p};
}

// Which of the two roots FpCtx::sqrt returns is pinned, per field, as
// {a, sqrt(a)} in standard form: a change of algorithm must return the same
// roots.
TEST(Fp, SqrtReturnsPinnedRoots) {
  const std::vector<std::vector<std::pair<const char*, const char*>>> pins = {
      {{"d29a79cab", "4b1ab2eee"},
       {"673314d15", "bf02eb4e3"},
       {"1d6934c69", "bd775e06b"}},
      {{"6f0fc90642c36e53", "bc4fe693dccf9df8"},
       {"fd84c4cd51ab6f40", "b599d0ee3f2513ce"},
       {"ae576984f71fc19d", "cb4483f49174f9a3"}},
      {{"43f0d6edc1a24f44e51ed5e90d6f881bcc95bfd81a61d5e90dbab6e1",
        "3a2cf5831e13ee6c8737b0b78288a579bd0ec131dc756baa17dd6179"},
       {"4bf2be95c7699a81174de7be543bcbc6820435de276e69b4843e06b1",
        "7217a442d6149c2f5e85a46664ad25dc41bfdc14f89df5ab09059529"},
       {"539da51b9e710bdf5227e1a58403500be1a76f45b8091d792f2d102f",
        "8c848e14fb9b253fef09a9192e02aaf9c1af3b78a366cf5cc092fd9e"}},
      {{"d80a88eb147b83e06000e41a289b7f0d79adc2bc726e2ea5efd526cd8483e329",
        "c05d119325acbe15dbbd7503d51ac9c7f66ddc0dc44bb1bc0c2a0163b5b2bfe9"},
       {"23b91c5bf014dff6d7d1b899d6e1a83b17551a6ea5112d76e6dd420fe9375036",
        "482f82c06a0cbc651aea9698227e42bca02a7dac1705bc3cba353fa57d19a73"},
       {"a9f0e5c575a45ab441fcdc931a0f4926b722534f2da880265ae64f257296127b",
        "a6ce0ebba9b5fa8be2a01bd56bf6023ae7549e74e3114c9705ba34de41ee306a"}}};
  // The least non-residue of each field has no root.
  const std::array<Limb, 4> least_nonresidue = {7, 7, 11, 3};
  const auto fields = sqrt_fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const FpCtx f{fields[i]};
    for (const auto& [a, root] : pins[i]) {
      const auto r = f.sqrt(f.to(Nat::from_hex(a)));
      ASSERT_TRUE(r.has_value()) << f.p().to_hex() << " a=" << a;
      EXPECT_EQ(f.from(*r), Nat::from_hex(root)) << f.p().to_hex() << " a=" << a;
    }
    for (Limb z = 2; z < least_nonresidue[i]; ++z)
      EXPECT_TRUE(f.sqrt(f.to(Nat{z})).has_value()) << f.p().to_hex();
    EXPECT_FALSE(f.sqrt(f.to(Nat{least_nonresidue[i]})).has_value())
        << f.p().to_hex();
    EXPECT_EQ(f.sqrt(f.zero()), f.zero());
  }
}

TEST(Fp, SqrtMatchesGmp) {
  ChaChaRng rng{78};
  for (const Nat& p : sqrt_fields()) {
    const FpCtx f{p};
    const mpz_class gp = to_gmp(p);
    std::size_t roots = 0;
    for (int i = 0; i < 200; ++i) {
      const Nat a = rng.below(p);
      const mpz_class ga = to_gmp(a);
      const auto r = f.sqrt(f.to(a));
      SCOPED_TRACE("p=" + p.to_hex() + " a=" + a.to_hex());
      ASSERT_EQ(r.has_value(), mpz_jacobi(ga.get_mpz_t(), gp.get_mpz_t()) != -1);
      if (!r) continue;
      const mpz_class root = to_gmp(f.from(*r));
      EXPECT_EQ(root * root % gp, ga);
      ++roots;
    }
    EXPECT_GT(roots, 60u) << p.to_hex();
  }
}

TEST(Fp, FromGmpHelperIsSane) {
  // Guard the oracle glue itself.
  const mpz_class g{"123456789abcdef", 16};
  EXPECT_EQ(to_gmp(from_gmp(g)), g);
}

}  // namespace
}  // namespace ppgr::mpz
