// Differential crypto harness for the fused exponentiations phase 2 runs:
// Group::dual_exp (SchnorrGroup's residue-native ladder, EcGroup's ladder
// on stack Jacobian points, and MockGroup's product of two exps) and the
// combs over a windowed FixedBaseTable must agree bit-for-bit with the
// naive per-term Group::exp evaluation, on
// every group family the framework runs over — mock (composite order),
// Schnorr (unique Montgomery representation) and elliptic-curve (non-unique
// Jacobian representation, compared through eq() and the canonical
// serialization). Edge exponents cover the window boundaries the ladders
// digit-slice at: 0, 1, 2^w - 1, and order +/- 1. The batch forms
// (exp_many / dual_exp_many) must equal the per-element calls on every
// family, including SchnorrGroup's 8-lane path (dl-test-256) and its scalar
// fallback (dl-1024), and MeteredGroup must keep the per-element counts.
// inv_many (Montgomery's trick on Schnorr groups, the per-element loop
// elsewhere) must equal per-element inv the same way. Group::exp_fixed (the
// y^r of every ElGamal encryption, through the joint key's comb) must equal
// Group::exp, and on the Schnorr groups GMP's mpz_powm as an independent
// oracle, and MeteredGroup must count it as one kGroupExp plus one
// kAccelFixedBaseExp. The comb's batch forms (exp_fixed_many / exp_g_many:
// SchnorrGroup's and EcGroup's 8-lane combs on IFMA hosts) must return
// exactly the per-element exp_fixed / exp_g element, and on the Schnorr
// groups mpz_powm's, at sizes around the lane splits, with zero, one,
// q - 1, all-zero and all-0xF windows and scalars wider than the table;
// every Schnorr and EC table must be its group's packed limbs on every
// host (MockGroup's empty), on an IFMA host the lanes must set every
// element of a 4-limb modulus's batches and one MontCtx::comb_lanes call
// of 3 or 11 scalars must equal the scalar comb, write nothing outside its
// span and refuse a scalar wider than the table, and MeteredGroup must
// forward both forms and count every element. A decorator that forwards
// no comb form must get the same elements and counts through Group's
// default. FixedBaseTest runs both
// comb forms at every window width 2..8 on every family, in batches the
// lanes take.
//
// EcGroup's point arithmetic (stack-limb Jacobian formulas) has its own
// independent oracle: textbook affine addition and doubling over GMP, on
// P-192, P-224 and P-256. mul, exp, exp_g, exp_fixed, exp_many, dual_exp
// and dual_exp_many must produce the oracle's point, compared by the
// serialized bytes, on Jacobian inputs (Z != 1) and decoded ones (Z = 1)
// alike. The batch forms' 8-lane ladders (EcLaneTest) are checked lane by
// lane against the oracle and against the scalar ladder's exact Jacobian
// triple, on batches of 8, 16, 64 and 67 (a padded batch of 3) mixing identity
// bases, zero, one, two, n - 1, short and wide exponents, x == y and
// y == x^-1, additions of P and -P, and one addition of P and P per batch
// of 16 or more, which reruns its pair of batches on the scalar ladder,
// whether the lane sits in the pair's first batch or its second. The lane
// combs (exp_fixed_many / exp_g_many) are checked the same way against the
// oracle and the scalar comb's exact triple, including an addition of P
// and -P and, through a table wider than the order, one of P and P; padded
// lanes must read no input past the call. BatchSplitTest runs every batch
// form of the three curves and of dl-test-256 (GMP's mpz_powm as oracle)
// at sizes 1-7, 9, 15-17, 23, 24, 31, 33, 35, 59 and 67, which take the
// one split's pairs, single batches, padded last batches and scalar
// remainders, into an output span whose neighbours must stay untouched,
// from inputs exactly as long as the call; on an IFMA host
// Group::lane_elements() must show the lanes set every element but a
// remainder below lanes::kPadFrom.
#include <gmpxx.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "group/ec_group.h"
#include "group/fixed_base.h"
#include "group/metered_group.h"
#include "group/mock_group.h"
#include "group/schnorr_group.h"
#include "mpz/ifma_lanes.h"
#include "mpz/mont.h"
#include "runtime/metrics.h"

namespace ppgr::group {
namespace {

using mpz::ChaChaRng;
using mpz::Nat;

// This CPU's AVX-512 IFMA support, read from CPUID independently of the
// library.
bool host_has_ifma() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512ifma");
#else
  return false;
#endif
}

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
    } else if (which == "dl1024") {
      g_ = make_group(GroupId::kDl1024);
    } else if (which == "p256") {
      g_ = make_group(GroupId::kEcP256);
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

class BatchExpTest : public MultiExpTest {
 protected:
  // n inputs of the phase-2 hop's shape, with edge exponents and a repeated
  // base mixed in.
  void fill(std::size_t n) {
    const auto edges = edge_exponents(*g_);
    xs_.clear();
    ys_.clear();
    exs_.clear();
    eys_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      xs_.push_back(i % 6 == 4 && i > 0 ? xs_[i - 1] : random_elem());
      ys_.push_back(random_elem());
      exs_.push_back(i % 3 == 0 ? edges[i % edges.size()]
                                : g_->random_nonzero_scalar(rng_));
      eys_.push_back(i % 4 == 1 ? edges[(i + 2) % edges.size()]
                                : g_->random_nonzero_scalar(rng_));
    }
  }

  std::vector<Elem> xs_, ys_;
  std::vector<Nat> exs_, eys_;
};

TEST_P(BatchExpTest, BatchFormsEqualPerElementCalls) {
  // Sizes around the lane splits: pairs of 8-lane batches, one batch and a
  // scalar tail.
  for (const std::size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 64}) {
    fill(n);
    std::vector<Elem> got(n), got2(n);
    g_->exp_many(xs_, exs_, got);
    g_->dual_exp_many(xs_, exs_, ys_, eys_, got2);
    for (std::size_t i = 0; i < n; ++i) {
      expect_same(*g_, got[i], g_->exp(xs_[i], exs_[i]), "exp_many");
      expect_same(*g_, got2[i], g_->dual_exp(xs_[i], exs_[i], ys_[i], eys_[i]),
                  "dual_exp_many");
    }
  }
  std::vector<Elem> out(2);
  EXPECT_THROW(g_->exp_many(xs_, exs_, out), std::invalid_argument);
}

TEST_P(BatchExpTest, MeteredGroupCountsEveryElement) {
  const MeteredGroup metered{*g_};
  fill(17);
  std::vector<Elem> out(17);
  runtime::MetricsBuffer buf;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    metered.exp_many(xs_, exs_, out);
    metered.dual_exp_many(xs_, exs_, ys_, eys_, out);
    metered.dual_exp_many({}, {}, {}, {}, {});
  }
  runtime::MetricsRegistry reg;
  reg.absorb(buf);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupExp), 17u);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupDualExp), 17u);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupMul), 0u);
}

// exp_fixed's scalars: zero, one, the order's neighborhood, a random one,
// and one wider than the table (the comb's fallback to the group's exp).
std::vector<Nat> exp_fixed_scalars(const Group& g, ChaChaRng& rng) {
  return {Nat{},
          Nat{1},
          Nat::sub(g.order(), Nat{1}),
          g.order(),
          g.random_nonzero_scalar(rng),
          Nat::add(g.order().shl(3), Nat{5})};
}

TEST_P(BatchExpTest, ExpFixedEqualsExp) {
  const Elem key = random_elem();
  const FixedBaseTable table{*g_, key};
  for (const Nat& s : exp_fixed_scalars(*g_, rng_))
    expect_same(*g_, g_->exp_fixed(table, s), g_->exp(key, s), "exp_fixed");
}

TEST_P(BatchExpTest, ExpFixedMatchesGmpOnSchnorrGroups) {
  const auto* schnorr = dynamic_cast<const SchnorrGroup*>(g_.get());
  if (schnorr == nullptr) GTEST_SKIP() << "no GMP oracle for this family";
  const auto to_gmp = [](const Nat& n) { return mpz_class{n.to_hex(), 16}; };
  const mpz_class p = to_gmp(schnorr->modulus());
  const mpz_class q = to_gmp(schnorr->order());
  // An element as its canonical |x| = min(x, p - x), the wire encoding.
  const auto canonical = [&](const Elem& x) {
    return to_gmp(Nat::from_bytes_be(g_->serialize(x)));
  };
  const Elem key = random_elem();
  const FixedBaseTable table{*g_, key};
  const mpz_class base = canonical(key);
  for (const Nat& s : exp_fixed_scalars(*g_, rng_)) {
    mpz_class want;
    mpz_powm(want.get_mpz_t(), base.get_mpz_t(), to_gmp(s).get_mpz_t(),
             p.get_mpz_t());
    if (want > q) want = p - want;
    EXPECT_EQ(canonical(g_->exp_fixed(table, s)), want) << s.to_dec();
  }
}

TEST_P(BatchExpTest, ExpFixedIsCountedOnceByMeteredGroup) {
  const MeteredGroup metered{*g_};
  const Elem key = random_elem();
  const FixedBaseTable table{*g_, key};
  const std::vector<Nat> scalars = exp_fixed_scalars(*g_, rng_);
  runtime::MetricsBuffer buf;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    for (const Nat& s : scalars)
      expect_same(*g_, metered.exp_fixed(table, s), g_->exp(key, s),
                  "metered exp_fixed");
  }
  runtime::MetricsRegistry reg;
  reg.absorb(buf);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupExp), scalars.size());
  EXPECT_EQ(reg.total(runtime::CryptoOp::kAccelFixedBaseExp), scalars.size());
  // The comb's products are internal to the inner group.
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupMul), 0u);
}

// Sizes around the comb's lane splits (pairs of 8-lane batches, one batch,
// scalar tails) up to two compare circuits' worth.
constexpr std::size_t kCombSizes[] = {0, 1, 7, 8, 9, 15, 16, 17, 35, 67};

// n comb scalars: random ones mixed with 0, 1, q - 1, one whose windows are
// all zero below the top one, and the widest the table holds (every window
// 0xF for w = 4).
std::vector<Nat> comb_scalars(const Group& g, const FixedBaseTable& t,
                              std::size_t n, ChaChaRng& rng) {
  const std::vector<Nat> edges{
      Nat{}, Nat{1}, Nat::sub(g.order(), Nat{1}),
      Nat::pow2(g.order().bit_length() - 1),
      Nat::sub(Nat::pow2(t.windows() * t.window_bits()), Nat{1})};
  std::vector<Nat> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(i % 3 == 1 ? edges[(i / 3) % edges.size()]
                             : g.random_nonzero_scalar(rng));
  return out;
}

// The exact element: the same residue, or the same Jacobian triple.
void expect_identical(const Elem& got, const Elem& want, const char* what,
                      std::size_t i) {
  EXPECT_EQ(got.infinity, want.infinity) << what << " [" << i << "]";
  EXPECT_EQ(got.a.to_hex(), want.a.to_hex()) << what << " [" << i << "]";
  EXPECT_EQ(got.b.to_hex(), want.b.to_hex()) << what << " [" << i << "]";
  EXPECT_EQ(got.c.to_hex(), want.c.to_hex()) << what << " [" << i << "]";
}

// True when this group's batch forms run on lanes on this host: 4-limb
// Schnorr groups and the curves, on AVX-512 IFMA CPUs.
bool runs_lanes(const Group& g) {
  if (const auto* dl = dynamic_cast<const SchnorrGroup*>(&g))
    return host_has_ifma() && dl->modulus().limb_count() == 4;
  return host_has_ifma() && dynamic_cast<const EcGroup*>(&g) != nullptr;
}

// Where the group runs lanes on this host, the elements its lanes set
// while run() ran must be `want`; elsewhere the lanes set none.
template <class Run>
void expect_lanes_set(const Group& g, std::size_t want, const Run& run,
                      const char* what) {
  const std::size_t before = g.lane_elements();
  run();
  EXPECT_EQ(g.lane_elements() - before, runs_lanes(g) ? want : 0u) << what;
}

// Elements on each side of a call's output that must keep their value.
constexpr std::size_t kGuard = 16;

bool identical(const Nat& x, const Nat& y) { return x == y; }
bool identical(const Elem& x, const Elem& y) {
  return x.infinity == y.infinity && x.a == y.a && x.b == y.b && x.c == y.c;
}

// run(out) on an n-element span in the middle of a larger vector; the
// kGuard elements on each side must keep their value. Returns the span's
// elements.
template <class T, class Run>
std::vector<T> guarded(std::size_t n, const T& sentinel, const Run& run) {
  std::vector<T> buf(n + 2 * kGuard, sentinel);
  run(std::span<T>(buf).subspan(kGuard, n));
  for (std::size_t i = 0; i < kGuard; ++i) {
    EXPECT_TRUE(identical(buf[i], sentinel)) << "guard before out, " << i;
    EXPECT_TRUE(identical(buf[kGuard + n + i], sentinel))
        << "guard after out, " << i;
  }
  return {buf.begin() + kGuard, buf.begin() + kGuard + n};
}

TEST_P(BatchExpTest, CombBatchFormsEqualPerElementCalls) {
  const Elem key = random_elem();
  const FixedBaseTable table{*g_, key};
  const Nat wide = Nat::add(g_->order().shl(3), Nat{5});
  for (const std::size_t n : kCombSizes) {
    for (const bool with_wide : {false, true}) {
      if (with_wide && n == 0) continue;
      std::vector<Nat> scalars = comb_scalars(*g_, table, n, rng_);
      if (with_wide) scalars[n / 2] = wide;  // the whole batch falls back
      std::vector<Elem> got(n), got_g(n);
      g_->exp_fixed_many(table, scalars, got);
      g_->exp_g_many(scalars, got_g);
      for (std::size_t i = 0; i < n; ++i) {
        expect_identical(got[i], g_->exp_fixed(table, scalars[i]),
                         "exp_fixed_many", i);
        expect_identical(got_g[i], g_->exp_g(scalars[i]), "exp_g_many", i);
        expect_same(*g_, got[i], g_->exp(key, scalars[i]), "exp_fixed_many");
      }
    }
  }
  std::vector<Nat> two(2);
  std::vector<Elem> one(1);
  EXPECT_THROW(g_->exp_fixed_many(table, two, one), std::invalid_argument);
  EXPECT_THROW(g_->exp_g_many(two, one), std::invalid_argument);
}

TEST_P(BatchExpTest, CombBatchFormsMatchGmpOnSchnorrGroups) {
  const auto* schnorr = dynamic_cast<const SchnorrGroup*>(g_.get());
  if (schnorr == nullptr) GTEST_SKIP() << "no GMP oracle for this family";
  const auto to_gmp = [](const Nat& n) { return mpz_class{n.to_hex(), 16}; };
  const mpz_class p = to_gmp(schnorr->modulus());
  const mpz_class q = to_gmp(schnorr->order());
  const auto canonical = [&](const Elem& x) {
    return to_gmp(Nat::from_bytes_be(g_->serialize(x)));
  };
  const auto powm = [&](const mpz_class& base, const Nat& e) {
    mpz_class r;
    mpz_powm(r.get_mpz_t(), base.get_mpz_t(), to_gmp(e).get_mpz_t(),
             p.get_mpz_t());
    return r > q ? mpz_class{p - r} : r;
  };
  const Elem key = random_elem();
  const FixedBaseTable table{*g_, key};
  const mpz_class base = canonical(key);
  // One MontCtx::comb_lanes call sets all of its 1 to 16 scalars, the last
  // batch padded (3 and 11 elements), and writes nothing outside its
  // output; with a scalar wider than the table it returns false and writes
  // nothing. A context without lanes refuses the call.
  const mpz::MontCtx mont{schnorr->modulus()};
  const Nat sentinel{0x5e5e};
  for (const std::size_t n : {3, 11}) {
    std::vector<Nat> scalars = comb_scalars(*g_, table, n, rng_);
    if (!runs_lanes(*g_)) {
      std::vector<Nat> out(n);
      EXPECT_THROW((void)mont.comb_lanes(table.packed(), table.window_bits(),
                                         scalars, out),
                   std::logic_error);
      continue;
    }
    const std::vector<Nat> got = guarded(n, sentinel, [&](std::span<Nat> out) {
      EXPECT_TRUE(
          mont.comb_lanes(table.packed(), table.window_bits(), scalars, out));
    });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(got[i], g_->exp_fixed(table, scalars[i]).a) << i;
    scalars[n - 1] = Nat::add(g_->order().shl(3), Nat{5});
    for (const Nat& untouched :
         guarded(n, sentinel, [&](std::span<Nat> out) {
           EXPECT_FALSE(mont.comb_lanes(table.packed(), table.window_bits(),
                                        scalars, out));
         }))
      EXPECT_EQ(untouched, sentinel);
  }
  if (runs_lanes(*g_)) {
    std::vector<Nat> none, many(17);
    EXPECT_THROW((void)mont.comb_lanes(table.packed(), table.window_bits(),
                                       none, none),
                 std::invalid_argument);
    EXPECT_THROW((void)mont.comb_lanes(table.packed(), table.window_bits(),
                                       many, many),
                 std::invalid_argument);
  }
  // The batch forms take the lanes for every element but a last remainder
  // below kPadFrom: all of 8, 35 and 67.
  for (const std::size_t n : {8, 35, 67}) {
    const std::vector<Nat> scalars = comb_scalars(*g_, table, n, rng_);
    std::vector<Elem> got(n), got_g(n);
    expect_lanes_set(*g_, n, [&] { g_->exp_fixed_many(table, scalars, got); },
                     "exp_fixed_many");
    g_->exp_g_many(scalars, got_g);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(canonical(got[i]), powm(base, scalars[i])) << i;
      EXPECT_EQ(canonical(got_g[i]), powm(4, scalars[i])) << i;
    }
  }
}

TEST_P(BatchExpTest, MeteredGroupCountsEveryCombElement) {
  const MeteredGroup metered{*g_};
  const FixedBaseTable table{*g_, random_elem()};
  const std::vector<Nat> scalars = comb_scalars(*g_, table, 17, rng_);
  std::vector<Elem> out(17), want(17);
  runtime::MetricsBuffer buf;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    metered.exp_fixed_many(table, scalars, out);
    metered.exp_g_many(scalars, out);
    metered.exp_fixed_many(table, {}, {});
    metered.exp_g_many({}, {});
  }
  runtime::MetricsRegistry reg;
  reg.absorb(buf);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupExp), 17u);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kAccelFixedBaseExp), 17u);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupExpG), 17u);
  // The combs' products are internal to the inner group.
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupMul), 0u);
  g_->exp_g_many(scalars, want);
  for (std::size_t i = 0; i < out.size(); ++i)
    expect_identical(out[i], want[i], "metered exp_g_many", i);
}

// inv_many inputs around one compare circuit's 70 elements, with the
// identity and the generator among random elements.
std::vector<Elem> inv_inputs(const Group& g, std::size_t n,
                             const std::function<Elem()>& random) {
  std::vector<Elem> xs;
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back(i % 9 == 2 ? g.identity()
                 : i % 9 == 5 ? g.generator()
                              : random());
  return xs;
}

TEST_P(BatchExpTest, InvManyEqualsPerElementInv) {
  for (const std::size_t n : {0, 1, 2, 8, 70, 71}) {
    const std::vector<Elem> xs =
        inv_inputs(*g_, n, [&] { return random_elem(); });
    std::vector<Elem> got(n);
    g_->inv_many(xs, got);
    for (std::size_t i = 0; i < n; ++i) {
      expect_same(*g_, got[i], g_->inv(xs[i]), "inv_many");
      EXPECT_TRUE(g_->is_identity(g_->mul(xs[i], got[i]))) << "element " << i;
    }
  }
  std::vector<Elem> xs(3, g_->generator()), out(2);
  EXPECT_THROW(g_->inv_many(xs, out), std::invalid_argument);
}

TEST_P(BatchExpTest, MeteredGroupCountsEveryInversion) {
  const MeteredGroup metered{*g_};
  const std::vector<Elem> xs =
      inv_inputs(*g_, 70, [&] { return random_elem(); });
  std::vector<Elem> out(xs.size());
  runtime::MetricsBuffer buf;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    metered.inv_many(xs, out);
    metered.inv_many({}, {});
  }
  runtime::MetricsRegistry reg;
  reg.absorb(buf);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupInv), 70u);
  // Montgomery's trick's products are internal to the inner group.
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupMul), 0u);
  for (std::size_t i = 0; i < xs.size(); ++i)
    expect_same(*g_, out[i], g_->inv(xs[i]), "metered inv_many");
}

// Forwards to `inner` the operations every Group must implement, and
// counts the inversions and dual_exps it forwards. It forwards no batch or
// comb form (perfbench's timing decorator is such a group): those take
// Group's defaults, and tables built over it are not packed.
class Forwarder : public Group {
 public:
  explicit Forwarder(const Group& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  const Nat& order() const override { return inner_.order(); }
  std::size_t field_bits() const override { return inner_.field_bits(); }
  Elem generator() const override { return inner_.generator(); }
  Elem identity() const override { return inner_.identity(); }
  Elem mul(const Elem& x, const Elem& y) const override {
    return inner_.mul(x, y);
  }
  Elem exp(const Elem& b, const Nat& s) const override {
    return inner_.exp(b, s);
  }
  Elem dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                const Nat& ey) const override {
    ++dual_exp_calls;
    return inner_.dual_exp(x, ex, y, ey);
  }
  Elem inv(const Elem& x) const override {
    ++inv_calls;
    return inner_.inv(x);
  }
  bool eq(const Elem& x, const Elem& y) const override {
    return inner_.eq(x, y);
  }
  bool is_identity(const Elem& x) const override {
    return inner_.is_identity(x);
  }
  std::vector<std::uint8_t> serialize(const Elem& x) const override {
    return inner_.serialize(x);
  }
  Elem deserialize(std::span<const std::uint8_t> b) const override {
    return inner_.deserialize(b);
  }
  std::size_t element_bytes() const override { return inner_.element_bytes(); }

  mutable std::size_t dual_exp_calls = 0, inv_calls = 0;

 protected:
  const Group& inner_;
};

// A Forwarder that also forwards the batch inversion and the comb forms,
// and records which of those entry points the caller reached.
class BatchSpy final : public Forwarder {
 public:
  using Forwarder::Forwarder;
  void inv_many(std::span<const Elem> xs, std::span<Elem> out) const override {
    ++inv_many_calls;
    inner_.inv_many(xs, out);
  }
  Elem exp_g(const Nat& s) const override {
    ++exp_g_calls;
    return inner_.exp_g(s);
  }
  void exp_g_many(std::span<const Nat> s, std::span<Elem> out) const override {
    ++exp_g_many_calls;
    inner_.exp_g_many(s, out);
  }
  void exp_fixed_many(const FixedBaseTable& t, std::span<const Nat> s,
                      std::span<Elem> out) const override {
    ++exp_fixed_many_calls;
    inner_.exp_fixed_many(t, s, out);
  }

  mutable std::size_t inv_many_calls = 0;
  mutable std::size_t exp_g_calls = 0, exp_g_many_calls = 0;
  mutable std::size_t exp_fixed_many_calls = 0;
};

TEST_P(BatchExpTest, MeteredGroupForwardsInvMany) {
  // The whole batch reaches the inner group's inv_many (SchnorrGroup's
  // Montgomery's trick), not the per-element default loop.
  const BatchSpy spy{*g_};
  const MeteredGroup metered{spy};
  const std::vector<Elem> xs =
      inv_inputs(*g_, 70, [&] { return random_elem(); });
  std::vector<Elem> out(xs.size());
  metered.inv_many(xs, out);
  EXPECT_EQ(spy.inv_many_calls, 1u);
  EXPECT_EQ(spy.inv_calls, 0u);
  for (std::size_t i = 0; i < xs.size(); ++i)
    expect_same(*g_, out[i], g_->inv(xs[i]), "metered inv_many");
}

TEST_P(BatchExpTest, MeteredGroupForwardsCombBatches) {
  // Each batch reaches the inner group's batch form once (SchnorrGroup's
  // and EcGroup's lane combs), not the per-element default loop, and is
  // counted once per element.
  const BatchSpy spy{*g_};
  const MeteredGroup metered{spy};
  const FixedBaseTable table{*g_, random_elem()};
  const std::vector<Nat> scalars = comb_scalars(*g_, table, 35, rng_);
  std::vector<Elem> out(scalars.size()), out_g(scalars.size());
  runtime::MetricsBuffer buf;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    metered.exp_fixed_many(table, scalars, out);
    metered.exp_g_many(scalars, out_g);
  }
  EXPECT_EQ(spy.exp_fixed_many_calls, 1u);
  EXPECT_EQ(spy.exp_g_many_calls, 1u);
  EXPECT_EQ(spy.exp_g_calls, 0u);
  runtime::MetricsRegistry reg;
  reg.absorb(buf);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupExp), scalars.size());
  EXPECT_EQ(reg.total(runtime::CryptoOp::kAccelFixedBaseExp), scalars.size());
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupExpG), scalars.size());
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    expect_identical(out[i], g_->exp_fixed(table, scalars[i]),
                     "metered exp_fixed_many", i);
    expect_identical(out_g[i], g_->exp_g(scalars[i]), "metered exp_g_many", i);
  }
}

TEST_P(BatchExpTest, ForwarderReachesTheInnerDualExp) {
  // dual_exp has no default: every decorator forwards it, and the inner
  // group's own ladder runs, once per call.
  const BatchSpy spy{*g_};
  const MeteredGroup metered{spy};
  fill(3);
  for (std::size_t i = 0; i < 3; ++i)
    expect_identical(metered.dual_exp(xs_[i], exs_[i], ys_[i], eys_[i]),
                     g_->dual_exp(xs_[i], exs_[i], ys_[i], eys_[i]),
                     "forwarded dual_exp", i);
  EXPECT_EQ(spy.dual_exp_calls, 3u);
}

TEST_P(BatchExpTest, TableIsPackedByItsGroupOnEveryHost) {
  // A table keeps only its group's packed entries, whatever the CPU: a
  // Schnorr residue on the modulus's limbs, an EC point's affine x and y on
  // four limbs each; MockGroup packs none.
  const FixedBaseTable table{*g_, random_elem()};
  std::size_t limbs_per_entry = 0;
  if (const auto* dl = dynamic_cast<const SchnorrGroup*>(g_.get()))
    limbs_per_entry = dl->modulus().limb_count();
  else if (dynamic_cast<const EcGroup*>(g_.get()) != nullptr)
    limbs_per_entry = 8;
  EXPECT_EQ(table.entries(), table.windows() << table.window_bits());
  EXPECT_EQ(table.packed().size(), table.entries() * limbs_per_entry);
  // A table is read only by the group that packed it.
  if (limbs_per_entry != 0) {
    const MockGroup mock{"mock"};
    const FixedBaseTable unpacked{mock, mock.generator()};
    std::vector<Elem> out(1);
    EXPECT_THROW(g_->exp_fixed_many(unpacked, std::vector<Nat>{Nat{1}}, out),
                 std::invalid_argument);
  }
}

TEST_P(BatchExpTest, DefaultCombServesADecoratorThatForwardsNone) {
  // A decorator that forwards no comb form reaches Group's exp_fixed_many
  // default, an exp of the table's base per scalar: the same elements as
  // the inner group's comb, and MeteredGroup's counts unchanged.
  const Forwarder plain{*g_};
  const MeteredGroup metered{plain};
  const Elem key = random_elem();
  const FixedBaseTable table{plain, key};
  EXPECT_TRUE(table.packed().empty());
  const FixedBaseTable packed{*g_, key};
  const std::vector<Nat> scalars = comb_scalars(*g_, packed, 17, rng_);
  std::vector<Elem> out(scalars.size()), want(scalars.size());
  g_->exp_fixed_many(packed, scalars, want);
  runtime::MetricsBuffer buf;
  Elem one;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    metered.exp_fixed_many(table, scalars, out);
    one = metered.exp_fixed(table, scalars[1]);
  }
  runtime::MetricsRegistry reg;
  reg.absorb(buf);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupExp), scalars.size() + 1);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kAccelFixedBaseExp),
            scalars.size() + 1);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kGroupMul), 0u);
  for (std::size_t i = 0; i < scalars.size(); ++i)
    expect_same(*g_, out[i], want[i], "default exp_fixed_many");
  expect_same(*g_, one, want[1], "default exp_fixed");
}

INSTANTIATE_TEST_SUITE_P(AllGroups, BatchExpTest,
                         ::testing::Values("mock", "schnorr", "dl1024", "p256"),
                         [](const auto& info) { return std::string{info.param}; });

class FixedBaseTest : public MultiExpTest {};

TEST_P(FixedBaseTest, CombsMatchGenericExpAcrossWidths) {
  // Both comb forms at every window width: exp_fixed (the scalar comb) and
  // one exp_fixed_many over 18 scalars, which on an IFMA host runs the
  // MontCtx and EcGroup lane combs on a pair of batches and a batch padded
  // from 2 (the lanes take every scalar: each fits the table). Each element
  // is exp's value, and the batch's the scalar comb's exact element.
  const Elem base = g_->exp_g(g_->random_nonzero_scalar(rng_));
  const std::size_t bits = g_->order().bit_length();
  std::vector<Nat> scalars = edge_exponents(*g_);
  while (scalars.size() < 18)
    scalars.push_back(g_->random_nonzero_scalar(rng_));
  for (std::size_t w = 2; w <= 8; ++w) {
    SCOPED_TRACE(testing::Message() << "w = " << w);
    const FixedBaseTable table{*g_, base, bits, w};
    EXPECT_EQ(table.window_bits(), w);
    std::vector<Elem> many(scalars.size());
    expect_lanes_set(*g_, scalars.size(),
                     [&] { g_->exp_fixed_many(table, scalars, many); },
                     "exp_fixed_many");
    for (std::size_t i = 0; i < scalars.size(); ++i) {
      const Elem one = g_->exp_fixed(table, scalars[i]);
      expect_same(*g_, one, g_->exp(base, scalars[i]), "exp_fixed");
      expect_same(*g_, many[i], g_->exp(base, scalars[i]), "exp_fixed_many");
      expect_identical(many[i], one, "exp_fixed_many", i);
    }
  }
}

TEST_P(FixedBaseTest, WiderScalarFallsBackToGenericExp) {
  // A table sized for 16-bit scalars asked for a full-width power: must
  // fall back to the group's generic ladder, not truncate the scalar.
  const Elem base = g_->exp_g(g_->random_nonzero_scalar(rng_));
  const FixedBaseTable table{*g_, base, 16};
  const Nat wide = Nat::add(g_->order(), Nat{2});
  expect_same(*g_, g_->exp_fixed(table, wide), g_->exp(base, wide),
              "fallback");
  std::vector<Nat> scalars(9, Nat{7});
  scalars[4] = wide;  // the whole batch leaves the lanes
  std::vector<Elem> out(scalars.size());
  g_->exp_fixed_many(table, scalars, out);
  for (std::size_t i = 0; i < scalars.size(); ++i)
    expect_same(*g_, out[i], g_->exp(base, scalars[i]), "batch fallback");
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

mpz_class to_gmp(const Nat& n) { return mpz_class{n.to_hex(), 16}; }

// An affine point over GMP; inf is the point at infinity.
struct Affine {
  mpz_class x, y;
  bool inf = false;
};

// A group's independent model over GMP: the group law, k-fold powers and
// the canonical encoding, on the curves' affine points or (GmpDl) on
// residues held in x.
class GmpModel {
 public:
  virtual ~GmpModel() = default;
  [[nodiscard]] virtual Affine identity() const = 0;
  [[nodiscard]] virtual Affine generator() const = 0;
  [[nodiscard]] virtual Affine add(const Affine& p, const Affine& q) const = 0;
  [[nodiscard]] virtual Affine mul(const mpz_class& k,
                                   const Affine& pt) const = 0;
  [[nodiscard]] virtual std::vector<std::uint8_t> encode(
      const Affine& pt) const = 0;
};

// Textbook affine arithmetic on y^2 = x^3 + ax + b over F_p: the chord and
// tangent rules with one field inversion each, and double-and-add.
class GmpCurve final : public GmpModel {
 public:
  explicit GmpCurve(const CurveParams& c)
      : p_(to_gmp(c.p)),
        a_(to_gmp(c.a)),
        g_{to_gmp(c.gx), to_gmp(c.gy)},
        bytes_((c.p.bit_length() + 7) / 8) {}

  [[nodiscard]] Affine identity() const override { return Affine{.inf = true}; }
  [[nodiscard]] Affine generator() const override { return g_; }

  [[nodiscard]] Affine neg(const Affine& pt) const {
    if (pt.inf) return pt;
    return Affine{pt.x, mod(-pt.y)};
  }

  [[nodiscard]] Affine add(const Affine& p, const Affine& q) const override {
    if (p.inf) return q;
    if (q.inf) return p;
    mpz_class lambda;
    if (p.x == q.x) {
      if (mod(p.y + q.y) == 0) return Affine{.inf = true};  // q = -p
      lambda = mod((3 * p.x * p.x + a_) * inverse(2 * p.y));
    } else {
      lambda = mod((q.y - p.y) * inverse(q.x - p.x));
    }
    const mpz_class x3 = mod(lambda * lambda - p.x - q.x);
    return Affine{x3, mod(lambda * (p.x - x3) - p.y)};
  }

  // k·pt for any k >= 0, most significant bit first.
  [[nodiscard]] Affine mul(const mpz_class& k,
                           const Affine& pt) const override {
    Affine acc{.inf = true};
    for (std::size_t i = mpz_sizeinbase(k.get_mpz_t(), 2); i-- > 0;) {
      acc = add(acc, acc);
      if (mpz_tstbit(k.get_mpz_t(), i) != 0) acc = add(acc, pt);
    }
    return acc;
  }

  // SEC1 uncompressed 0x04 || x || y, all zeros for the point at infinity.
  [[nodiscard]] std::vector<std::uint8_t> encode(
      const Affine& pt) const override {
    std::vector<std::uint8_t> out(1 + 2 * bytes_, 0);
    if (pt.inf) return out;
    out[0] = 0x04;
    put(out.data() + 1, pt.x);
    put(out.data() + 1 + bytes_, pt.y);
    return out;
  }

 private:
  [[nodiscard]] mpz_class mod(const mpz_class& v) const {
    mpz_class r;
    mpz_mod(r.get_mpz_t(), v.get_mpz_t(), p_.get_mpz_t());
    return r;
  }
  [[nodiscard]] mpz_class inverse(const mpz_class& v) const {
    mpz_class r;
    const mpz_class m = mod(v);
    EXPECT_NE(mpz_invert(r.get_mpz_t(), m.get_mpz_t(), p_.get_mpz_t()), 0);
    return r;
  }
  // v (< p) as exactly bytes_ big-endian bytes.
  void put(std::uint8_t* dst, const mpz_class& v) const {
    std::size_t n = 0;
    std::vector<std::uint8_t> be(bytes_);
    mpz_export(be.data(), &n, 1, 1, 1, 0, v.get_mpz_t());
    std::copy_n(be.begin(), n, dst + bytes_ - n);
  }

  mpz_class p_, a_;
  Affine g_;
  std::size_t bytes_;
};

// The DL group Z_p*/{+-1} over GMP: residues mod p in x, products and
// mpz_powm, and the canonical |x| = min(x, p - x) big-endian.
class GmpDl final : public GmpModel {
 public:
  explicit GmpDl(const SchnorrGroup& g)
      : p_(to_gmp(g.modulus())), q_(to_gmp(g.order())),
        bytes_(g.element_bytes()) {}

  [[nodiscard]] Affine identity() const override { return Affine{1, 0}; }
  [[nodiscard]] Affine generator() const override { return Affine{4, 0}; }
  [[nodiscard]] Affine add(const Affine& p, const Affine& q) const override {
    return Affine{mpz_class{p.x * q.x % p_}, 0};
  }
  [[nodiscard]] Affine mul(const mpz_class& k,
                           const Affine& pt) const override {
    Affine r{0, 0};
    mpz_powm(r.x.get_mpz_t(), pt.x.get_mpz_t(), k.get_mpz_t(), p_.get_mpz_t());
    return r;
  }
  [[nodiscard]] std::vector<std::uint8_t> encode(
      const Affine& pt) const override {
    const mpz_class v = pt.x > q_ ? mpz_class{p_ - pt.x} : pt.x;
    std::vector<std::uint8_t> out(bytes_, 0);
    std::size_t n = 0;
    std::vector<std::uint8_t> be(bytes_);
    mpz_export(be.data(), &n, 1, 1, 1, 0, v.get_mpz_t());
    std::copy_n(be.begin(), n, out.end() - static_cast<std::ptrdiff_t>(n));
    return out;
  }

 private:
  mpz_class p_, q_;
  std::size_t bytes_;
};

// An element with its oracle twin.
struct Pt {
  Elem e;
  Affine a;
};

CurveParams curve_params(GroupId id) {
  switch (id) {
    case GroupId::kEcP192: return nist_p192();
    case GroupId::kEcP224: return nist_p224();
    default: return nist_p256();
  }
}

class EcOracleTest : public ::testing::TestWithParam<GroupId> {
 protected:
  EcOracleTest()
      : params_(curve_params(GetParam())), g_(params_), oracle_(params_) {}

  // s·G as a comb output (Jacobian, Z != 1 in general) or, with affine
  // set, decoded from the oracle's encoding (Z = 1).
  Pt point(const Nat& s, bool affine) {
    const Affine a = oracle_.mul(to_gmp(s), oracle_.generator());
    return Pt{affine ? g_.deserialize(oracle_.encode(a)) : g_.exp_g(s), a};
  }
  Pt random_point(bool affine) {
    return point(g_.random_nonzero_scalar(rng_), affine);
  }

  void expect_point(const Elem& got, const Affine& want, const char* what) {
    EXPECT_EQ(g_.serialize(got), oracle_.encode(want)) << what;
  }

  // {0, 1, n - 1, n, n + 1, 2n + 3, a random scalar, one wider than 2^300}.
  std::vector<Nat> scalars() {
    const Nat& n = g_.order();
    return {Nat{},
            Nat{1},
            Nat::sub(n, Nat{1}),
            n,
            Nat::add(n, Nat{1}),
            Nat::add(n.shl(1), Nat{3}),
            g_.random_nonzero_scalar(rng_),
            Nat::add(Nat::pow2(301), g_.random_nonzero_scalar(rng_))};
  }

  CurveParams params_;
  EcGroup g_;
  GmpCurve oracle_;
  ChaChaRng rng_{7};
};

TEST_P(EcOracleTest, MulMatchesAffineAddition) {
  const Affine inf{.inf = true};
  const Elem id = g_.identity();
  for (const bool affine : {false, true}) {
    const Pt p = random_point(affine), q = random_point(!affine);
    expect_point(g_.mul(p.e, q.e), oracle_.add(p.a, q.a), "P+Q");
    expect_point(g_.mul(q.e, p.e), oracle_.add(p.a, q.a), "Q+P");
    expect_point(g_.mul(p.e, p.e), oracle_.add(p.a, p.a), "P+P");
    // The same point as another representative, (P + Q) - Q for an affine
    // P and the decoded P otherwise: the doubling that U1 == U2 finds, and
    // the cancellation against its negation.
    const Elem p_other = affine ? g_.mul(g_.mul(p.e, q.e), g_.inv(q.e))
                                : g_.deserialize(g_.serialize(p.e));
    expect_point(g_.mul(p.e, p_other), oracle_.add(p.a, p.a), "P+P'");
    expect_point(g_.mul(p.e, g_.inv(p.e)), inf, "P+(-P)");
    expect_point(g_.mul(p.e, g_.inv(p_other)), inf, "P+(-P')");
    expect_point(g_.mul(p.e, id), p.a, "P+O");
    expect_point(g_.mul(id, p.e), p.a, "O+P");
    expect_point(g_.inv(p.e), oracle_.neg(p.a), "-P");
  }
  expect_point(g_.mul(id, id), inf, "O+O");
}

TEST_P(EcOracleTest, ExpFamilyMatchesScalarMultiplication) {
  const Pt p = random_point(false), q = random_point(true);
  const FixedBaseTable table{g_, p.e};
  const std::vector<Nat> ks = scalars();
  std::vector<Elem> bases;
  std::vector<Affine> want;
  for (const Nat& k : ks) {
    const mpz_class kk = to_gmp(k);
    const Affine kp = oracle_.mul(kk, p.a), kq = oracle_.mul(kk, q.a);
    expect_point(g_.exp(p.e, k), kp, "exp");
    expect_point(g_.exp(q.e, k), kq, "exp, affine base");
    expect_point(g_.exp_g(k), oracle_.mul(kk, oracle_.generator()), "exp_g");
    expect_point(g_.exp_fixed(table, k), kp, "exp_fixed");
    expect_point(g_.exp(g_.identity(), k), Affine{.inf = true}, "exp of O");
    bases.push_back(p.e);
    want.push_back(kp);
    bases.push_back(q.e);
    want.push_back(kq);
  }
  std::vector<Nat> doubled;
  for (const Nat& k : ks) {
    doubled.push_back(k);
    doubled.push_back(k);
  }
  std::vector<Elem> out(bases.size());
  g_.exp_many(bases, doubled, out);
  for (std::size_t i = 0; i < out.size(); ++i)
    expect_point(out[i], want[i], "exp_many");
}

TEST_P(EcOracleTest, DualExpMatchesOracle) {
  const Pt x = random_point(false), y = random_point(true);
  const Nat s = g_.random_nonzero_scalar(rng_);
  const Nat t = g_.random_nonzero_scalar(rng_);
  const Nat& n = g_.order();
  const Pt x_inv{g_.inv(x.e), oracle_.neg(x.a)};
  struct Case {
    const Pt* x;
    Nat ex;
    const Pt* y;
    Nat ey;
    const char* what;
  };
  const std::vector<Case> cases{
      {&x, Nat{}, &y, s, "(0, s)"},
      {&x, s, &y, Nat{}, "(s, 0)"},
      {&x, n, &y, n, "(n, n)"},
      {&x, s, &x, t, "x == y"},
      {&x, s, &x, s, "x == y, ex == ey"},
      {&x, s, &x_inv, t, "y == x^-1"},
      {&x, s, &x_inv, s, "y == x^-1, ex == ey"},
      {&x, s, &y, t, "random"},
      {&y, Nat::add(Nat::pow2(301), s), &x, t, "wide"},
  };
  std::vector<Elem> xs, ys;
  std::vector<Nat> exs, eys;
  std::vector<Affine> want;
  for (const Case& c : cases) {
    want.push_back(oracle_.add(oracle_.mul(to_gmp(c.ex), c.x->a),
                               oracle_.mul(to_gmp(c.ey), c.y->a)));
    expect_point(g_.dual_exp(c.x->e, c.ex, c.y->e, c.ey), want.back(), c.what);
    xs.push_back(c.x->e);
    exs.push_back(c.ex);
    ys.push_back(c.y->e);
    eys.push_back(c.ey);
  }
  std::vector<Elem> out(cases.size());
  g_.dual_exp_many(xs, exs, ys, eys, out);
  std::vector<std::uint8_t> all;
  for (std::size_t i = 0; i < out.size(); ++i) {
    expect_point(out[i], want[i], cases[i].what);
    const auto bytes = oracle_.encode(want[i]);
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  EXPECT_EQ(g_.serialize_many(out), all);
}

// One batch (8), one pair (16), four pairs (64) and four pairs with a padded
// batch of 3 (67).
constexpr std::size_t kLaneBatchSizes[] = {8, 16, 64, 67};
// The element that forces an addition of a point and itself, in every batch
// long enough to hold it: its pair of batches reruns on the scalar ladder,
// and the other calls never do.
constexpr std::size_t kDoublingLane = 12;
// Sizes that take every form of the lane split: one batch's remainder,
// padded or scalar (1-7); a batch and a scalar remainder (9, 17, 33); a
// pair padded from a remainder of 7 (15) or 9 (59: three pairs first);
// pairs (16, 24: a pair and a batch); and pairs followed by padded batches
// or pairs (23, 31, 35, 67).
constexpr std::size_t kSplitSizes[] = {1,  2,  3,  4,  5,  6,  7,  9,  15,
                                       16, 17, 23, 24, 31, 33, 35, 59, 67};

// The elements a call of n sets on the lanes when no lane reruns: all but
// a last batch's remainder shorter than kPadFrom.
std::size_t lane_count(std::size_t n) {
  return n % 8 >= mpz::lanes::kPadFrom ? n : n - n % 8;
}

// The batch forms lane by lane: each element must be the oracle's point and
// exactly the scalar ladder's Jacobian triple.
class EcLaneTest : public EcOracleTest {
 protected:
  void SetUp() override {
    // Only this assertion depends on the host; the checks below run on
    // whichever path the host takes.
    EXPECT_EQ(g_.batch_lanes(), host_has_ifma() ? 8u : 1u);
    for (std::size_t i = 0; i < 3; ++i) {
      pool_.push_back(random_point(false));
      pool_.push_back(random_point(true));
    }
  }

  static Nat from_gmp(const mpz_class& v) { return Nat::from_hex(v.get_str(16)); }

  // A scalar whose ladder adds d·P to an accumulator that already is d·P:
  // the windows above digit d spell t = d/16 mod n, which four doublings
  // turn into d·P. Two more digits follow, so the doubling happens
  // mid-ladder.
  Nat doubling_scalar(unsigned d) const {
    const mpz_class n = to_gmp(g_.order());
    mpz_class inv16;
    mpz_invert(inv16.get_mpz_t(), mpz_class{16}.get_mpz_t(), n.get_mpz_t());
    const mpz_class t = mpz_class{d * inv16} % n;
    return from_gmp(((16 * t + d) << 8) + 0x5a);
  }

  const Pt& pooled(std::size_t i) const { return pool_[i % pool_.size()]; }

  void expect_elem(const Elem& got, const Elem& want, std::size_t lane,
                   const char* what) {
    EXPECT_EQ(got.infinity, want.infinity) << what << ", lane " << lane;
    EXPECT_EQ(got.a.to_hex(), want.a.to_hex()) << what << ", lane " << lane;
    EXPECT_EQ(got.b.to_hex(), want.b.to_hex()) << what << ", lane " << lane;
    EXPECT_EQ(got.c.to_hex(), want.c.to_hex()) << what << ", lane " << lane;
  }

  std::vector<Pt> pool_;
};

TEST_P(EcLaneTest, ExpManyMatchesOracleAndScalarLadderPerLane) {
  const Nat& n = g_.order();
  const Pt identity{g_.identity(), Affine{.inf = true}};
  for (const std::size_t size : kLaneBatchSizes) {
    std::vector<Elem> bases;
    std::vector<Nat> ks;
    std::vector<Affine> want;
    for (std::size_t i = 0; i < size; ++i) {
      const Pt* base = &pooled(i);
      Nat k = g_.random_nonzero_scalar(rng_);
      if (i == kDoublingLane) {
        k = doubling_scalar(1 + static_cast<unsigned>(i % 15));
      } else {
        switch (i % 9) {
          case 1: base = &identity; break;
          case 2: k = Nat{}; break;
          case 3: k = Nat{1}; break;
          case 4: k = Nat{2}; break;
          case 5: k = Nat::sub(n, Nat{1}); break;
          case 6: k = Nat{rng_.below_u64(1u << 20)}; break;  // short
          case 7: k = n; break;  // ends in P + (-P)
          case 8: k = Nat::add(Nat::pow2(301), k); break;    // wide
          default: break;
        }
      }
      bases.push_back(base->e);
      ks.push_back(k);
      want.push_back(oracle_.mul(to_gmp(k), base->a));
    }
    std::vector<Elem> out(size);
    g_.exp_many(bases, ks, out);
    for (std::size_t i = 0; i < size; ++i) {
      expect_point(out[i], want[i], "exp_many");
      expect_elem(out[i], g_.exp(bases[i], ks[i]), i, "exp_many");
    }
  }
}

TEST_P(EcLaneTest, DualExpManyMatchesOracleAndScalarLadderPerLane) {
  const Nat& n = g_.order();
  const Pt identity{g_.identity(), Affine{.inf = true}};
  for (const std::size_t size : kLaneBatchSizes) {
    std::vector<Elem> xs, ys;
    std::vector<Nat> exs, eys;
    std::vector<Affine> want;
    for (std::size_t i = 0; i < size; ++i) {
      const Pt& px = pooled(i);
      Pt x = px, y = pooled(i + 1);
      Nat ex = g_.random_nonzero_scalar(rng_);
      Nat ey = g_.random_nonzero_scalar(rng_);
      if (i == kDoublingLane) {
        y = x;  // the first nonzero window adds x's entry to itself
        ey = ex;
      } else {
        switch (i % 11) {
          case 1: x = identity; break;
          case 2: y = identity; break;
          case 3: ex = Nat{}; break;
          case 4: ey = Nat{}; break;
          case 5: y = x; break;  // x == y
          case 6:                // y == x^-1, ex == ey: the identity
            y = Pt{g_.inv(x.e), oracle_.neg(x.a)};
            ey = ex;
            break;
          case 7: y = Pt{g_.inv(x.e), oracle_.neg(x.a)}; break;
          case 8:
            ex = Nat{1};
            ey = Nat{2};
            break;
          case 9:
            ex = Nat::sub(n, Nat{1});
            ey = Nat{rng_.below_u64(1u << 20)};
            break;
          case 10: ey = Nat::add(Nat::pow2(301), ey); break;
          default: break;
        }
      }
      xs.push_back(x.e);
      ys.push_back(y.e);
      exs.push_back(ex);
      eys.push_back(ey);
      want.push_back(oracle_.add(oracle_.mul(to_gmp(ex), x.a),
                                 oracle_.mul(to_gmp(ey), y.a)));
    }
    std::vector<Elem> out(size);
    g_.dual_exp_many(xs, exs, ys, eys, out);
    for (std::size_t i = 0; i < size; ++i) {
      expect_point(out[i], want[i], "dual_exp_many");
      expect_elem(out[i], g_.dual_exp(xs[i], exs[i], ys[i], eys[i]), i,
                  "dual_exp_many");
    }
  }
}

TEST_P(EcLaneTest, CancellingLanesMatchScalarLadder) {
  // n·P ends in (n - d)·P + d·P = P + (-P), which the lanes must turn into
  // the identity. Their H = U2 - U1 below 2p is then 0 or, a few percent of
  // the time on P-256 (whose p is within a factor 16 of 2^260), exactly p:
  // 256 lanes on distinct bases, half of them decoded (Z = 1), make sure
  // both forms are met.
  constexpr std::size_t kSize = 256;
  std::vector<Elem> bases;
  for (std::size_t i = 0; i < kSize; ++i) {
    const Elem b = g_.exp_g(g_.random_nonzero_scalar(rng_));
    bases.push_back(i % 2 == 0 ? b : g_.deserialize(g_.serialize(b)));
  }
  const std::vector<Nat> ks(kSize, g_.order());
  std::vector<Elem> out(kSize);
  g_.exp_many(bases, ks, out);
  for (std::size_t i = 0; i < kSize; ++i) {
    EXPECT_TRUE(g_.is_identity(out[i])) << "lane " << i;
    expect_elem(out[i], g_.exp(bases[i], ks[i]), i, "exp_many of n");
  }
}

TEST_P(EcLaneTest, CombBatchesMatchOracleAndScalarCombPerLane) {
  const Nat& n = g_.order();
  const Pt& p = pooled(0);  // a Jacobian base; the table normalizes it
  const FixedBaseTable table{g_, p.e};
  EXPECT_EQ(table.packed().size(), table.entries() * 8);
  const Nat all_f =
      Nat::sub(Nat::pow2(table.windows() * table.window_bits()), Nat{1});
  for (const std::size_t size : kCombSizes) {
    std::vector<Nat> ks;
    for (std::size_t i = 0; i < size; ++i) {
      Nat k = g_.random_nonzero_scalar(rng_);
      switch (i % 9) {
        case 1: k = Nat{}; break;
        case 2: k = Nat{1}; break;
        case 3: k = Nat::sub(n, Nat{1}); break;
        case 4: k = n; break;  // ends in P + (-P)
        case 5: k = Nat{rng_.below_u64(1u << 20)}; break;  // short
        case 6: k = all_f; break;
        case 7: k = Nat::pow2(n.bit_length() - 1); break;  // zero windows
        default: break;
      }
      ks.push_back(k);
    }
    std::vector<Elem> out(size), out_g(size);
    g_.exp_fixed_many(table, ks, out);
    g_.exp_g_many(ks, out_g);
    for (std::size_t i = 0; i < size; ++i) {
      const mpz_class k = to_gmp(ks[i]);
      expect_point(out[i], oracle_.mul(k, p.a), "exp_fixed_many");
      expect_elem(out[i], g_.exp_fixed(table, ks[i]), i, "exp_fixed_many");
      expect_point(out_g[i], oracle_.mul(k, oracle_.generator()),
                   "exp_g_many");
      expect_elem(out_g[i], g_.exp_g(ks[i]), i, "exp_g_many");
    }
  }
}

TEST_P(EcLaneTest, CombLaneAddingPointToItselfRerunsItsPair) {
  // A table wider than the order wraps: with s = 2^280 + (2^280 mod n) the
  // comb reaches window 70 holding (2^280 mod n)·P and adds its entry
  // 2^280·P, the same point. The call holding that lane, a pair of
  // batches, reruns on the scalar comb whether the lane is in its first
  // batch or its second; the next call, a batch of 8, runs on the lanes.
  const Pt& p = pooled(1);
  const FixedBaseTable table{g_, p.e, 300};
  const Nat top = Nat::pow2(280);
  const Nat doubling = Nat::add(top, top % g_.order());
  for (const std::size_t lane : {std::size_t{3}, kDoublingLane}) {
    std::vector<Nat> ks;
    for (std::size_t i = 0; i < 24; ++i)
      ks.push_back(i == lane ? doubling
                             : Nat::add(top, g_.random_nonzero_scalar(rng_)));
    std::vector<Elem> out(ks.size());
    expect_lanes_set(g_, 8, [&] { g_.exp_fixed_many(table, ks, out); },
                     "exp_fixed_many");
    for (std::size_t i = 0; i < ks.size(); ++i) {
      expect_point(out[i], oracle_.mul(to_gmp(ks[i]), p.a), "exp_fixed_many");
      expect_elem(out[i], g_.exp_fixed(table, ks[i]), i, "exp_fixed_many");
    }
  }
}

TEST_P(EcLaneTest, PairRerunsWhenEitherBatchAddsAPointToItself) {
  // 16 elements are one pair of batches; one lane of either batch adds a
  // point to itself, so the whole pair reruns on the scalar ladder and
  // every element is still exactly its per-element triple.
  for (const std::size_t lane : {std::size_t{3}, kDoublingLane}) {
    std::vector<Elem> bases, xs, ys;
    std::vector<Nat> ks, exs, eys;
    for (std::size_t i = 0; i < 16; ++i) {
      bases.push_back(pooled(i).e);
      ks.push_back(i == lane ? doubling_scalar(7)
                             : g_.random_nonzero_scalar(rng_));
      xs.push_back(pooled(i).e);
      ys.push_back(i == lane ? xs.back() : pooled(i + 1).e);
      exs.push_back(g_.random_nonzero_scalar(rng_));
      eys.push_back(i == lane ? exs.back() : g_.random_nonzero_scalar(rng_));
    }
    std::vector<Elem> out(16), dual(16);
    expect_lanes_set(g_, 0, [&] { g_.exp_many(bases, ks, out); }, "exp_many");
    expect_lanes_set(g_, 0, [&] { g_.dual_exp_many(xs, exs, ys, eys, dual); },
                     "dual_exp_many");
    for (std::size_t i = 0; i < 16; ++i) {
      expect_point(out[i], oracle_.mul(to_gmp(ks[i]), pooled(i).a),
                   "exp_many");
      expect_elem(out[i], g_.exp(bases[i], ks[i]), i, "exp_many");
      expect_elem(dual[i], g_.dual_exp(xs[i], exs[i], ys[i], eys[i]), i,
                  "dual_exp_many");
    }
  }
}

TEST_P(EcLaneTest, PaddedLanesReadNoInputPastTheCall) {
  // Each call's inputs are the first 5 elements of longer vectors whose
  // next elements would make a lane add a point to itself (the ladders'
  // doubling scalar, x == y with ex == ey, and the wide table's wrapping
  // scalar). A padded lane that read past the call would send it to the
  // scalar path: on an IFMA host the lanes must set all 5 elements.
  constexpr std::size_t kCall = 5;
  const Pt& p = pooled(1);
  const FixedBaseTable wide{g_, p.e, 300};
  const Nat top = Nat::pow2(280);
  std::vector<Elem> xs, ys;
  std::vector<Nat> exs, eys, cs;
  for (std::size_t i = 0; i < kCall + 8; ++i) {
    const bool poison = i >= kCall;
    xs.push_back(pooled(i).e);
    ys.push_back(poison ? xs.back() : pooled(i + 1).e);
    exs.push_back(poison ? doubling_scalar(5) : g_.random_nonzero_scalar(rng_));
    eys.push_back(poison ? exs.back() : g_.random_nonzero_scalar(rng_));
    cs.push_back(poison ? Nat::add(top, top % g_.order())
                        : Nat::add(top, g_.random_nonzero_scalar(rng_)));
  }
  const auto first = [](const auto& v) {
    return std::span(v).first(kCall);
  };
  std::vector<Elem> out(kCall), dual(kCall), fixed(kCall);
  expect_lanes_set(g_, kCall, [&] { g_.exp_many(first(xs), first(exs), out); },
                   "exp_many");
  expect_lanes_set(g_, kCall, [&] {
    g_.dual_exp_many(first(xs), first(exs), first(ys), first(eys), dual);
  }, "dual_exp_many");
  expect_lanes_set(g_, kCall, [&] { g_.exp_fixed_many(wide, first(cs), fixed); },
                   "exp_fixed_many");
  for (std::size_t i = 0; i < kCall; ++i) {
    expect_elem(out[i], g_.exp(xs[i], exs[i]), i, "exp_many");
    expect_elem(dual[i], g_.dual_exp(xs[i], exs[i], ys[i], eys[i]), i,
                "dual_exp_many");
    expect_elem(fixed[i], g_.exp_fixed(wide, cs[i]), i, "exp_fixed_many");
  }
}

// The batch split of both families (lanes::split_lanes): the curves, with
// GmpCurve as oracle, and dl-test-256 (MontCtx's lanes), with GmpDl.
class BatchSplitTest : public ::testing::TestWithParam<GroupId> {
 protected:
  BatchSplitTest() : g_(make_group(GetParam())) {
    if (const auto* dl = dynamic_cast<const SchnorrGroup*>(g_.get()))
      model_ = std::make_unique<GmpDl>(*dl);
    else
      model_ = std::make_unique<GmpCurve>(curve_params(GetParam()));
  }

  void SetUp() override {
    // s·G as a comb output or decoded from the oracle's encoding.
    for (std::size_t i = 0; i < 6; ++i) {
      const Nat s = g_->random_nonzero_scalar(rng_);
      const Affine a = model_->mul(to_gmp(s), model_->generator());
      pool_.push_back(
          Pt{i % 2 == 0 ? g_->exp_g(s) : g_->deserialize(model_->encode(a)),
             a});
    }
  }

  void expect_point(const Elem& got, const Affine& want, const char* what) {
    EXPECT_EQ(g_->serialize(got), model_->encode(want)) << what;
  }

  std::unique_ptr<Group> g_;
  std::unique_ptr<GmpModel> model_;
  std::vector<Pt> pool_;
  ChaChaRng rng_{7};
};

TEST_P(BatchSplitTest, BatchSplitsMatchOracleAndScalarPathPerElement) {
  // Every batch form at every size of kSplitSizes, on mixed inputs that
  // meet no P + P (y == x^+-1 would, in a few percent of the EC lanes, in
  // the ladder's first windows): each element is the oracle's element and
  // exactly the per-element call's, nothing outside the output span is
  // written, and where the group runs lanes the lanes set every element but
  // a remainder below kPadFrom. Each input vector holds exactly the call's
  // elements, so a padded lane that reads past the call reads past an
  // allocation, which the sanitizer leg catches.
  const Group& g = *g_;
  const Nat& n = g.order();
  const Pt identity{g.identity(), model_->identity()};
  const Pt& p = pool_[0];
  const FixedBaseTable table{g, p.e};
  const Elem sentinel = g.exp_g(Nat{0x5e5e});
  for (const std::size_t size : kSplitSizes) {
    SCOPED_TRACE(size);
    std::vector<Elem> xs(size), ys(size);
    std::vector<Nat> exs(size), eys(size);
    std::vector<Affine> want_exp(size), want_dual(size);
    for (std::size_t i = 0; i < size; ++i) {
      Pt x = pool_[i % pool_.size()], y = pool_[(i + 1) % pool_.size()];
      Nat ex = g.random_nonzero_scalar(rng_);
      Nat ey = g.random_nonzero_scalar(rng_);
      switch (i % 7) {
        case 1: x = identity; break;
        case 2: ex = Nat{}; break;
        case 3: ex = n; break;  // ends in P + (-P) on the curves
        case 4: y = identity; break;
        case 5: ex = Nat{rng_.below_u64(1u << 20)}; break;  // short
        default: break;
      }
      xs[i] = x.e;
      ys[i] = y.e;
      exs[i] = ex;
      eys[i] = ey;
      want_exp[i] = model_->mul(to_gmp(ex), x.a);
      want_dual[i] = model_->add(want_exp[i], model_->mul(to_gmp(ey), y.a));
    }
    std::vector<Elem> out, dual, fixed, with_g;
    expect_lanes_set(g, lane_count(size), [&] {
      out = guarded(size, sentinel,
                    [&](std::span<Elem> o) { g.exp_many(xs, exs, o); });
    }, "exp_many");
    expect_lanes_set(g, lane_count(size), [&] {
      dual = guarded(size, sentinel, [&](std::span<Elem> o) {
        g.dual_exp_many(xs, exs, ys, eys, o);
      });
    }, "dual_exp_many");
    expect_lanes_set(g, lane_count(size), [&] {
      fixed = guarded(size, sentinel, [&](std::span<Elem> o) {
        g.exp_fixed_many(table, exs, o);
      });
    }, "exp_fixed_many");
    expect_lanes_set(g, lane_count(size), [&] {
      with_g = guarded(size, sentinel,
                       [&](std::span<Elem> o) { g.exp_g_many(exs, o); });
    }, "exp_g_many");
    for (std::size_t i = 0; i < size; ++i) {
      const mpz_class k = to_gmp(exs[i]);
      expect_point(out[i], want_exp[i], "exp_many");
      expect_identical(out[i], g.exp(xs[i], exs[i]), "exp_many", i);
      expect_point(dual[i], want_dual[i], "dual_exp_many");
      expect_identical(dual[i], g.dual_exp(xs[i], exs[i], ys[i], eys[i]),
                       "dual_exp_many", i);
      expect_point(fixed[i], model_->mul(k, p.a), "exp_fixed_many");
      expect_identical(fixed[i], g.exp_fixed(table, exs[i]), "exp_fixed_many",
                       i);
      expect_point(with_g[i], model_->mul(k, model_->generator()),
                   "exp_g_many");
      expect_identical(with_g[i], g.exp_g(exs[i]), "exp_g_many", i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, BatchSplitTest,
                         ::testing::Values(GroupId::kEcP192, GroupId::kEcP224,
                                           GroupId::kEcP256,
                                           GroupId::kDlTest256),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

INSTANTIATE_TEST_SUITE_P(NistCurves, EcLaneTest,
                         ::testing::Values(GroupId::kEcP192, GroupId::kEcP224,
                                           GroupId::kEcP256),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

INSTANTIATE_TEST_SUITE_P(NistCurves, EcOracleTest,
                         ::testing::Values(GroupId::kEcP192, GroupId::kEcP224,
                                           GroupId::kEcP256),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace ppgr::group
