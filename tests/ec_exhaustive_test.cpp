// Exhaustive elliptic-curve validation on a tiny curve.
//
// The production curves (P-192/224/256) are validated against group laws and
// their standardized parameters, but subtle formula bugs (wrong Jacobian
// doubling branch, bad mixed-representation handling) can hide in random
// testing. Here we take a curve small enough to enumerate completely —
// y^2 = x^3 + 2x + 3 over F_97 (order 100 = 2^2 * 5^2, subgroup of prime
// order 5 for the Group wrapper) — compute the full group table by brute
// force from the curve equation, and check EVERY addition against the
// implementation. The batch forms (exp_many / dual_exp_many, 8-lane
// ladders on IFMA CPUs, and exp_fixed_many's 8-lane combs) run over every
// point too, in pairs of batches, single batches and padded last batches:
// small orders make their exceptional cases (P + P, P + (-P), doublings of
// points of order 2, the identity as a comb entry) common here, where the
// NIST curves almost never meet them.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "group/ec_group.h"
#include "group/fixed_base.h"
#include "mpz/ifma_lanes.h"

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

std::uint64_t order_of(const AffinePt& p) {
  std::uint64_t ord = 1;
  for (AffinePt acc = p; !acc.inf; acc = ref_add(acc, p)) ++ord;
  return p.inf ? 1 : ord;
}

AffinePt ref_mul(std::uint64_t k, const AffinePt& p) {
  AffinePt acc{.inf = true};
  for (std::uint64_t i = 0; i < k; ++i) acc = ref_add(acc, p);
  return acc;
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
  static Elem lift(const EcGroup& curve, const AffinePt& p) {
    return p.inf ? curve.identity() : curve.from_affine(Nat{p.x}, Nat{p.y});
  }
  static AffinePt drop(const EcGroup& curve, const Elem& e) {
    if (curve.is_identity(e)) return AffinePt{.inf = true};
    const auto [x, y] = curve.to_affine(e);
    return AffinePt{.x = x.to_limb(), .y = y.to_limb()};
  }
  // The same Jacobian triple.
  static bool same(const Elem& got, const Elem& want) {
    return got.infinity == want.infinity && got.a == want.a &&
           got.b == want.b && got.c == want.c;
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

// The call sizes every point passes through: a pair of batches (16), a
// pair padded from 13, a batch with one scalar remainder (9) and one batch
// padded from 5.
constexpr std::size_t kCallSizes[] = {16, 13, 9, 5};

TEST_F(TinyCurve, BatchFormsEqualScalarLadderOnEveryPoint) {
  // exp_many / dual_exp_many over every point of the curve (the identity and
  // the points of order 2, 4, 5, 10, ... included), in calls of each size
  // of kCallSizes: each element must be the k-fold reference sum and
  // exactly the scalar ladder's Jacobian triple. On an IFMA CPU the calls
  // run the lane ladders, where small orders make P + (-P), P + P and
  // doublings of order-2 points common. A base of order at most 15 sends
  // its call to the scalar ladder while its digit table is built, so the
  // points are sorted by descending order: the first calls hold only bases
  // of order 20 and above, whose ladders run on the lanes to the end or to
  // a P + P.
  auto pts = enumerate_curve();
  std::stable_sort(pts.begin(), pts.end(),
                   [&](const AffinePt& a, const AffinePt& b) {
                     return order_of(a) > order_of(b);
                   });
  const EcGroup curve = make(pts[1], 5);
  const auto lift = [&](const AffinePt& p) {
    return TinyCurve::lift(curve, p);
  };
  const auto drop = [&](const Elem& e) { return TinyCurve::drop(curve, e); };
  const std::size_t n = pts.size();
  std::vector<Elem> xs, ys;
  std::vector<Nat> ks, ls;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(lift(pts[i]));
    ys.push_back(lift(pts[(i * 7 + 3) % n]));
    ks.push_back(Nat{(i * 13 + 5) % 53});
    ls.push_back(Nat{(i * 11) % 47});
  }
  for (const std::size_t call : kCallSizes) {
    std::vector<Elem> out(n), dual(n);
    for (std::size_t i = 0; i < n; i += call) {
      const std::size_t c = std::min(call, n - i);
      const auto in = [&](const auto& v) { return std::span(v).subspan(i, c); };
      curve.exp_many(in(xs), in(ks), std::span(out).subspan(i, c));
      curve.dual_exp_many(in(xs), in(ks), in(ys), in(ls),
                          std::span(dual).subspan(i, c));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = ks[i].to_limb(), l = ls[i].to_limb();
      const AffinePt& p = pts[i];
      const AffinePt& q = pts[(i * 7 + 3) % n];
      EXPECT_EQ(drop(out[i]), ref_mul(k, p))
          << "exp_many, calls of " << call << ", element " << i;
      EXPECT_TRUE(same(out[i], curve.exp(xs[i], ks[i])))
          << "exp_many, calls of " << call << ", element " << i;
      EXPECT_EQ(drop(dual[i]), ref_add(ref_mul(k, p), ref_mul(l, q)))
          << "dual_exp_many, calls of " << call << ", element " << i;
      EXPECT_TRUE(same(dual[i], curve.dual_exp(xs[i], ks[i], ys[i], ls[i])))
          << "dual_exp_many, calls of " << call << ", element " << i;
    }
  }

  // One pair whose second batch doubles a point of order 2 mid-ladder in
  // lane 11: the scalar (o/2)·16 + 1 on a base of even order o brings the
  // accumulator to (o/2)·P, of order 2, right before a window's doublings.
  // The other lanes are single-window scalars, which meet no exceptional
  // operation; the whole pair reruns on the scalar ladder.
  const AffinePt& p = pts.front();
  const std::uint64_t o = order_of(p);
  ASSERT_EQ(o % 2, 0u);
  const std::vector<Elem> same_base(16, lift(p));
  std::vector<Nat> scalars;
  for (std::uint64_t i = 0; i < 16; ++i)
    scalars.push_back(i == 11 ? Nat{o / 2 * 16 + 1} : Nat{1 + i % 15});
  std::vector<Elem> batch(16);
  curve.exp_many(same_base, scalars, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(drop(batch[i]), ref_mul(scalars[i].to_limb(), p))
        << "order-2 doubling pair, lane " << i;
    EXPECT_TRUE(same(batch[i], curve.exp(same_base[i], scalars[i])))
        << "order-2 doubling pair, lane " << i;
  }
}

// True when the 8-bit comb over p (two 4-bit windows) adds an entry to an
// accumulator that already holds it: k's low digit gives d0·p, and its
// high digit's entry 16·d1·p is the same finite point.
bool comb_meets_p_plus_p(std::uint64_t k, const AffinePt& p) {
  const AffinePt acc = ref_mul(k & 0xF, p), entry = ref_mul(16 * (k >> 4), p);
  return !acc.inf && !entry.inf && acc == entry;
}

// The elements EcGroup's lanes set over one call of the scalars ks through
// a comb over p: the call's lane chunks (up to 16 elements; a last batch
// padded from lanes::kPadFrom elements, a shorter remainder scalar), less
// every chunk holding a lane that meets P + P, which reruns.
std::size_t comb_lane_elements(const std::vector<Nat>& ks,
                               const AffinePt& p) {
  std::size_t i = 0, set = 0;
  for (;;) {
    std::size_t count = std::min<std::size_t>(ks.size() - i, 16);
    if (count % 8 < mpz::lanes::kPadFrom) count -= count % 8;
    if (count == 0) return set;
    if (std::none_of(ks.begin() + i, ks.begin() + i + count,
                     [&](const Nat& k) {
                       return comb_meets_p_plus_p(k.to_limb(), p);
                     }))
      set += count;
    i += count;
  }
}

TEST_F(TinyCurve, CombBatchesEqualScalarCombOnEveryPoint) {
  // exp_fixed_many through an 8-bit comb table of every point of the curve,
  // in one call of each size of kCallSizes per table, against the k-fold
  // reference sum and exactly the scalar comb's Jacobian triple. Small
  // orders put the identity among the entries of nonzero digits (order 5:
  // T[0][5] = O), and make the accumulator meet its own entry (P + P: the
  // call's lanes rerun on the scalar comb) or its negation (P + (-P)). On
  // an IFMA CPU the lanes must set every element of every lane chunk whose
  // scalars meet no P + P. A padded lane that adds anything can send its
  // chunk there: on a point of order 5, where 16·P = P, any scalar whose two
  // digits agree mod 5 and are nonzero (0x11, say) meets P + P.
  const auto pts = enumerate_curve();
  const EcGroup curve = make(pts[1], 5);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const FixedBaseTable table{curve, lift(curve, pts[i]), 8};
    for (const std::size_t call : kCallSizes) {
      std::vector<Nat> ks;
      for (std::uint64_t j = 0; j < call; ++j)
        ks.push_back(Nat{(i * 37 + j * 29 + call) % 256});
      std::vector<Elem> out(ks.size());
      const std::size_t before = curve.lane_elements();
      curve.exp_fixed_many(table, ks, out);
      EXPECT_EQ(curve.lane_elements() - before,
                curve.batch_lanes() == 8 ? comb_lane_elements(ks, pts[i]) : 0)
          << "point " << i << ", call of " << call;
      for (std::size_t j = 0; j < ks.size(); ++j) {
        EXPECT_EQ(drop(curve, out[j]), ref_mul(ks[j].to_limb(), pts[i]))
            << "point " << i << ", call of " << call << ", lane " << j;
        EXPECT_TRUE(same(out[j], curve.exp_fixed(table, ks[j])))
            << "point " << i << ", call of " << call << ", lane " << j;
      }
    }
  }
}

}  // namespace
}  // namespace ppgr::group
