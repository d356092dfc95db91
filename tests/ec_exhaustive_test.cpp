// Exhaustive elliptic-curve validation on a tiny curve.
//
// The production curves (P-192/224/256) are validated against group laws and
// their standardized parameters, but subtle formula bugs (wrong Jacobian
// doubling branch, bad mixed-representation handling) can hide in random
// testing. Here we take a curve small enough to enumerate completely —
// y^2 = x^3 + 2x + 3 over F_97 (order 100 = 2^2 * 5^2, subgroup of prime
// order 5 for the Group wrapper) — compute the full group table by brute
// force from the curve equation, and check EVERY addition against the
// implementation.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "group/ec_group.h"

namespace ppgr::group {
namespace {

using mpz::Nat;

// Brute-force affine point list of y^2 = x^3 + ax + b over F_p (small p).
struct AffinePt {
  std::uint64_t x, y;
  bool inf = false;
  bool operator<(const AffinePt& o) const {
    return std::tie(inf, x, y) < std::tie(o.inf, o.x, o.y);
  }
  bool operator==(const AffinePt& o) const {
    return inf == o.inf && (inf || (x == o.x && y == o.y));
  }
};

constexpr std::uint64_t kP = 97, kA = 2, kB = 3;

std::uint64_t addm(std::uint64_t a, std::uint64_t b) { return (a + b) % kP; }
std::uint64_t subm(std::uint64_t a, std::uint64_t b) {
  return (a + kP - b) % kP;
}
std::uint64_t mulm(std::uint64_t a, std::uint64_t b) { return a * b % kP; }
std::uint64_t powm(std::uint64_t a, std::uint64_t e) {
  std::uint64_t r = 1;
  while (e) {
    if (e & 1) r = mulm(r, a);
    a = mulm(a, a);
    e >>= 1;
  }
  return r;
}
std::uint64_t invm(std::uint64_t a) { return powm(a, kP - 2); }

// Textbook affine addition (the independent reference).
AffinePt ref_add(const AffinePt& p, const AffinePt& q) {
  if (p.inf) return q;
  if (q.inf) return p;
  if (p.x == q.x && addm(p.y, q.y) == 0) return AffinePt{.inf = true};
  std::uint64_t lambda;
  if (p == q) {
    lambda = mulm(addm(mulm(3, mulm(p.x, p.x)), kA), invm(mulm(2, p.y)));
  } else {
    lambda = mulm(subm(q.y, p.y), invm(subm(q.x, p.x)));
  }
  const std::uint64_t x3 = subm(subm(mulm(lambda, lambda), p.x), q.x);
  const std::uint64_t y3 = subm(mulm(lambda, subm(p.x, x3)), p.y);
  return AffinePt{.x = x3, .y = y3};
}

std::vector<AffinePt> enumerate_curve() {
  std::vector<AffinePt> pts{AffinePt{.inf = true}};
  for (std::uint64_t x = 0; x < kP; ++x) {
    const std::uint64_t rhs = addm(addm(powm(x, 3), mulm(kA, x)), kB);
    for (std::uint64_t y = 0; y < kP; ++y) {
      if (mulm(y, y) == rhs) pts.push_back(AffinePt{.x = x, .y = y});
    }
  }
  return pts;
}

// Find a point of prime order 5 to anchor the Group wrapper. (Curve order
// is enumerated, not assumed.)
class TinyCurve : public ::testing::Test {
 protected:
  static EcGroup make(const AffinePt& gen, std::uint64_t order) {
    return EcGroup{CurveParams{.name = "tiny-f97",
                               .p = Nat{kP},
                               .a = Nat{kA},
                               .b = Nat{kB},
                               .gx = Nat{gen.x},
                               .gy = Nat{gen.y},
                               .order = Nat{order}}};
  }
};

TEST_F(TinyCurve, EveryPairwiseAdditionMatchesReference) {
  const auto pts = enumerate_curve();
  ASSERT_GT(pts.size(), 10u);

  // Use any non-identity point as formal generator; we only exercise mul.
  // Order passed is the full enumerated group order's largest prime factor
  // path is irrelevant here — use a point of small prime order found below.
  // For the addition table we can construct elements directly.
  AffinePt gen{};
  std::uint64_t gen_order = 0;
  for (const auto& p : pts) {
    if (p.inf) continue;
    // Compute the order of p by repeated reference addition.
    AffinePt acc = p;
    std::uint64_t ord = 1;
    while (!acc.inf) {
      acc = ref_add(acc, p);
      ++ord;
    }
    if (ord == 5) {  // prime-order subgroup generator for the wrapper
      gen = p;
      gen_order = ord;
      break;
    }
  }
  if (gen_order == 0) GTEST_SKIP() << "no order-5 point on this curve";
  const EcGroup curve = make(gen, gen_order);

  auto lift = [&](const AffinePt& p) {
    return p.inf ? curve.identity() : curve.from_affine(Nat{p.x}, Nat{p.y});
  };
  auto drop = [&](const Elem& e) {
    if (curve.is_identity(e)) return AffinePt{.inf = true};
    const auto [x, y] = curve.to_affine(e);
    return AffinePt{.x = x.to_limb(), .y = y.to_limb()};
  };

  // The full Cayley table: |E|^2 additions (~10^4), every special case hit
  // (doubling, inverse pairs, identity, mixed Z-coordinates).
  for (const auto& p : pts) {
    for (const auto& q : pts) {
      const AffinePt expect = ref_add(p, q);
      const AffinePt got = drop(curve.mul(lift(p), lift(q)));
      ASSERT_EQ(got, expect)
          << "(" << p.x << "," << p.y << ") + (" << q.x << "," << q.y << ")";
    }
  }
}

TEST_F(TinyCurve, EveryPairwiseAdditionOnScaledRepresentativesMatches) {
  // The same Cayley table with both operands in Jacobian form with Z != 1:
  // (x, y) as (l^2 x, l^3 y, l), a different l per operand, so the general
  // (non-affine) addition runs on every pair.
  const auto pts = enumerate_curve();
  const EcGroup curve = make(pts[1], 5);
  const auto& f = curve.field();
  auto lift = [&](const AffinePt& p, std::uint64_t l) {
    if (p.inf) return curve.identity();
    const std::uint64_t l2 = mulm(l, l);
    return Elem{.a = f.to(Nat{mulm(l2, p.x)}),
                .b = f.to(Nat{mulm(mulm(l2, l), p.y)}),
                .c = f.to(Nat{l})};
  };
  auto drop = [&](const Elem& e) {
    if (curve.is_identity(e)) return AffinePt{.inf = true};
    const auto [x, y] = curve.to_affine(e);
    return AffinePt{.x = x.to_limb(), .y = y.to_limb()};
  };
  for (const auto& p : pts) {
    for (const auto& q : pts) {
      const AffinePt got = drop(curve.mul(lift(p, 5), lift(q, 7)));
      ASSERT_EQ(got, ref_add(p, q))
          << "(" << p.x << "," << p.y << ") + (" << q.x << "," << q.y << ")";
    }
  }
}

TEST_F(TinyCurve, ScalarMultiplicationMatchesRepeatedAddition) {
  const auto pts = enumerate_curve();
  // Pick several points; check exp(p, k) against k-fold reference addition
  // for every k up to beyond the point's order (wraparound included).
  int tested = 0;
  for (const auto& p : pts) {
    if (p.inf) continue;
    AffinePt acc = p;
    std::uint64_t ord = 1;
    while (!acc.inf) {
      acc = ref_add(acc, p);
      ++ord;
    }
    if (ord != 5) continue;
    const EcGroup curve = make(p, ord);
    const Elem base = curve.generator();
    AffinePt ref{.inf = true};
    for (std::uint64_t k = 0; k <= 2 * ord + 1; ++k) {
      const Elem got = curve.exp(base, Nat{k});
      if (ref.inf) {
        EXPECT_TRUE(curve.is_identity(got)) << "k=" << k;
      } else {
        const auto [x, y] = curve.to_affine(got);
        EXPECT_EQ(x.to_limb(), ref.x) << "k=" << k;
        EXPECT_EQ(y.to_limb(), ref.y) << "k=" << k;
      }
      ref = ref_add(ref, p);
    }
    if (++tested >= 3) break;
  }
  EXPECT_GT(tested, 0);
}

}  // namespace
}  // namespace ppgr::group
