// Tests for the group layer: abstract group laws over every instantiation,
// safe-prime parameter validation, elliptic-curve specifics, serialization,
// the metering decorator and the GroupId name table.
#include <gmpxx.h>
#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "group/fixed_base.h"
#include "group/ec_group.h"
#include "group/group.h"
#include "group/metered_group.h"
#include "group/schnorr_group.h"
#include "mpz/fp.h"
#include "mpz/mont.h"
#include "mpz/prime.h"

namespace ppgr::group {
namespace {

using mpz::ChaChaRng;
using mpz::Nat;

// Cheap-to-test groups; the large DL groups get targeted tests below.
std::vector<GroupId> fast_group_ids() {
  return {GroupId::kDlTest256, GroupId::kEcP192, GroupId::kEcP224,
          GroupId::kEcP256, GroupId::kDl1024};
}

class GroupLaws : public ::testing::TestWithParam<GroupId> {};

TEST_P(GroupLaws, AxiomsAndExponentArithmetic) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{1};
  const Elem gen = g->generator();
  EXPECT_FALSE(g->is_identity(gen));
  // Generator has order q: g^q == 1 and g^1 != 1.
  EXPECT_TRUE(g->is_identity(g->exp(gen, g->order())));

  for (int i = 0; i < 6; ++i) {
    const Nat x = g->random_scalar(rng), y = g->random_scalar(rng);
    const Elem gx = g->exp_g(x), gy = g->exp_g(y);
    // Homomorphism: g^x * g^y == g^(x+y mod q).
    const Nat xpy = Nat::add(x, y) % g->order();
    EXPECT_TRUE(g->eq(g->mul(gx, gy), g->exp_g(xpy)));
    // (g^x)^y == g^(xy mod q).
    const Nat xy = Nat::mul(x, y) % g->order();
    EXPECT_TRUE(g->eq(g->exp(gx, y), g->exp_g(xy)));
    // Inverses and identity.
    EXPECT_TRUE(g->is_identity(g->mul(gx, g->inv(gx))));
    EXPECT_TRUE(g->eq(g->mul(gx, g->identity()), gx));
    EXPECT_TRUE(g->eq(g->div(g->mul(gx, gy), gy), gx));
    // Commutativity / associativity.
    EXPECT_TRUE(g->eq(g->mul(gx, gy), g->mul(gy, gx)));
  }
}

TEST_P(GroupLaws, ExponentEdgeCases) {
  const auto g = make_group(GetParam());
  const Elem gen = g->generator();
  EXPECT_TRUE(g->is_identity(g->exp(gen, Nat{})));
  EXPECT_TRUE(g->eq(g->exp(gen, Nat{1}), gen));
  EXPECT_TRUE(g->eq(g->exp(gen, Nat{2}), g->mul(gen, gen)));
  // exp of the identity stays identity.
  EXPECT_TRUE(g->is_identity(g->exp(g->identity(), Nat{12345})));
  // q-1 gives the inverse of g.
  EXPECT_TRUE(
      g->eq(g->exp(gen, Nat::sub(g->order(), Nat{1})), g->inv(gen)));
}

TEST_P(GroupLaws, SerializationRoundTrip) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{2};
  for (int i = 0; i < 6; ++i) {
    const Elem e = g->exp_g(g->random_scalar(rng));
    const auto bytes = g->serialize(e);
    EXPECT_EQ(bytes.size(), g->element_bytes());
    EXPECT_TRUE(g->eq(g->deserialize(bytes), e));
  }
  EXPECT_THROW((void)g->deserialize(std::vector<std::uint8_t>(3, 0x5A)),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllGroups, GroupLaws,
                         ::testing::ValuesIn(fast_group_ids()),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(SchnorrGroup, EmbeddedSafePrimesAreSafePrimes) {
  ChaChaRng rng{3};
  struct Case {
    GroupId id;
    std::size_t bits;
  };
  for (const auto& [id, bits] :
       {Case{GroupId::kDlTest256, 256}, Case{GroupId::kDl1024, 1024},
        Case{GroupId::kDl2048, 2048}, Case{GroupId::kDl3072, 3072}}) {
    const auto g = make_group(id);
    auto* sg = dynamic_cast<SchnorrGroup*>(g.get());
    ASSERT_NE(sg, nullptr);
    EXPECT_EQ(sg->modulus().bit_length(), bits) << sg->name();
    EXPECT_EQ(sg->order(), Nat::sub(sg->modulus(), Nat{1}).shr(1));
    EXPECT_TRUE(mpz::is_probable_prime(sg->modulus(), rng, 8)) << sg->name();
    EXPECT_TRUE(mpz::is_probable_prime(sg->order(), rng, 8)) << sg->name();
  }
}

TEST(SchnorrGroup, GeneratorIsQuadraticResidue) {
  const auto g = make_group(GroupId::kDlTest256);
  auto* sg = dynamic_cast<SchnorrGroup*>(g.get());
  const mpz_class p{sg->modulus().to_hex(), 16};
  EXPECT_EQ(mpz_jacobi(mpz_class{4}.get_mpz_t(), p.get_mpz_t()), 1);
}

// The DL decode contract: the group is Z_p*/{±1} and the wire carries the
// canonical representative, so exactly the values 1..q decode, each to an
// element of order dividing q, and each re-encodes to itself.
TEST(SchnorrGroup, DeserializeAcceptsExactlyOneToQ) {
  for (const GroupId id : {GroupId::kDlTest256, GroupId::kDl1024}) {
    const auto g = make_group(id);
    auto* sg = dynamic_cast<SchnorrGroup*>(g.get());
    const Nat& p = sg->modulus();
    const Nat& q = sg->order();
    const std::size_t len = g->element_bytes();
    const auto rejects = [&](std::span<const std::uint8_t> bytes) {
      EXPECT_THROW((void)g->deserialize(bytes), std::invalid_argument)
          << g->name() << ", " << bytes.size() << " bytes";
    };
    // Out of range: zero, q + 1, p - 1 (the non-canonical encoding of the
    // identity), p, p + 1 and the all-ones encoding.
    for (const Nat& z : {Nat{}, Nat::add(q, Nat{1}), Nat::sub(p, Nat{1}), p,
                         Nat::add(p, Nat{1})})
      rejects(z.to_bytes_be(len));
    rejects(std::vector<std::uint8_t>(len, 0xff));
    // In range: 1, q and the least quadratic non-residue.
    const mpz_class gp{p.to_hex(), 16};
    Nat nonresidue{2};
    while (mpz_jacobi(mpz_class{nonresidue.to_hex(), 16}.get_mpz_t(),
                      gp.get_mpz_t()) != -1)
      nonresidue += Nat{1};
    for (const Nat& z : {Nat{1}, q, nonresidue}) {
      const auto bytes = z.to_bytes_be(len);
      const Elem x = g->deserialize(bytes);
      EXPECT_EQ(g->serialize(x), bytes) << g->name() << " z=" << z.to_hex();
      EXPECT_TRUE(g->is_identity(g->exp(x, q))) << g->name();
      EXPECT_EQ(g->is_identity(x), z.is_one()) << g->name();
    }
    // Wrong lengths around a valid encoding.
    std::vector<std::uint8_t> ok = g->serialize(g->generator());
    EXPECT_TRUE(g->eq(g->deserialize(ok), g->generator())) << g->name();
    rejects(std::span<const std::uint8_t>(ok).subspan(1));
    rejects({});
    ok.insert(ok.begin(), 0);
    rejects(ok);
  }
}

TEST(SchnorrGroup, DeserializePropertyOverRandomBytes) {
  ChaChaRng rng{6};
  for (const GroupId id : {GroupId::kDlTest256, GroupId::kDl1024}) {
    const auto g = make_group(id);
    const Nat& q = g->order();
    std::vector<std::uint8_t> bytes(g->element_bytes());
    int accepted = 0;
    for (int i = 0; i < 10000; ++i) {
      rng.fill(bytes);
      const Nat z = Nat::from_bytes_be(bytes);
      if (z.is_zero() || z > q) {
        EXPECT_THROW((void)g->deserialize(bytes), std::invalid_argument)
            << g->name() << " z=" << z.to_hex();
        continue;
      }
      ++accepted;
      const Elem x = g->deserialize(bytes);
      EXPECT_TRUE(g->is_identity(g->exp(x, q)))
          << g->name() << " z=" << z.to_hex();
    }
    // Uniform bytes land in [1, q] a little under half the time.
    EXPECT_GT(accepted, 1000) << g->name();
    EXPECT_LT(accepted, 9000) << g->name();
  }
}

// Arithmetic runs on whichever representative it produces; eq, is_identity
// and serialize see only the class {x, -x}.
TEST(SchnorrGroup, NegatedRepresentativeIsTheSameElement) {
  for (const GroupId id : {GroupId::kDlTest256, GroupId::kDl1024}) {
    const auto g = make_group(id);
    auto* sg = dynamic_cast<SchnorrGroup*>(g.get());
    const Nat& p = sg->modulus();
    const mpz::MontCtx mont{p};
    ChaChaRng rng{7};
    const Elem x = g->exp_g(g->random_nonzero_scalar(rng));
    const Elem neg{.a = Nat::sub(p, x.a)};
    EXPECT_TRUE(g->eq(x, neg)) << g->name();
    EXPECT_TRUE(g->eq(neg, x)) << g->name();
    EXPECT_EQ(g->serialize(neg), g->serialize(x)) << g->name();
    EXPECT_FALSE(g->eq(x, g->generator())) << g->name();
    EXPECT_FALSE(g->is_identity(neg)) << g->name();
    const Elem minus_one{.a = mont.to_mont(Nat::sub(p, Nat{1}))};
    EXPECT_TRUE(g->is_identity(minus_one)) << g->name();
    EXPECT_TRUE(g->eq(minus_one, g->identity())) << g->name();
    EXPECT_EQ(g->serialize(minus_one), Nat{1}.to_bytes_be(g->element_bytes()))
        << g->name();
  }
}

TEST(SchnorrGroup, RejectsModulusNotThreeModFour) {
  EXPECT_THROW(SchnorrGroup("p13", Nat{13}), std::invalid_argument);
  EXPECT_NO_THROW(SchnorrGroup("p23", Nat{23}));
}

TEST(EcGroup, StandardCurveParametersValidate) {
  for (const CurveParams& params : {nist_p192(), nist_p224(), nist_p256()}) {
    const EcGroup curve{params};
    // Base point on curve and of exact prime order.
    EXPECT_TRUE(curve.on_curve(params.gx, params.gy)) << params.name;
    EXPECT_TRUE(curve.is_identity(curve.exp(curve.generator(), params.order)))
        << params.name;
    ChaChaRng rng{4};
    EXPECT_TRUE(mpz::is_probable_prime(params.order, rng, 8)) << params.name;
    EXPECT_TRUE(mpz::is_probable_prime(params.p, rng, 8)) << params.name;
  }
}

TEST(EcGroup, AffineRoundTripAndNegation) {
  const EcGroup curve{nist_p192()};
  ChaChaRng rng{5};
  const Elem pt = curve.exp_g(curve.random_nonzero_scalar(rng));
  const auto [x, y] = curve.to_affine(pt);
  EXPECT_TRUE(curve.eq(curve.from_affine(x, y), pt));
  // -P has the same x, negated y.
  const auto [xn, yn] = curve.to_affine(curve.inv(pt));
  EXPECT_EQ(xn, x);
  EXPECT_EQ(yn, Nat::sub(curve.field().p(), y));
  EXPECT_THROW((void)curve.to_affine(curve.identity()), std::domain_error);
}

TEST(EcGroup, FromAffineValidates) {
  const EcGroup curve{nist_p192()};
  EXPECT_THROW((void)curve.from_affine(Nat{1}, Nat{1}), std::invalid_argument);
}

TEST(EcGroup, RejectsCurvesWithZeroB) {
  // y^2 = x^3 + 2x over F_97 holds (0, 0), a point of order 2: no b = 0
  // curve has prime order, and the comb tables read all zeros as the
  // identity.
  const CurveParams params{.name = "b0-f97",
                           .p = Nat{97},
                           .a = Nat{2},
                           .b = Nat{},
                           .gx = Nat{},
                           .gy = Nat{},
                           .order = Nat{2}};
  EXPECT_THROW(EcGroup{params}, std::invalid_argument);
}

TEST(EcGroup, AdditionSpecialCases) {
  const EcGroup curve{nist_p192()};
  const Elem g = curve.generator();
  // P + (-P) = identity.
  EXPECT_TRUE(curve.is_identity(curve.mul(g, curve.inv(g))));
  // P + identity = P (both orders).
  EXPECT_TRUE(curve.eq(curve.mul(g, curve.identity()), g));
  EXPECT_TRUE(curve.eq(curve.mul(curve.identity(), g), g));
  // Doubling via mul(x, x) agrees with exp(x, 2) — triggers the u1==u2 path.
  EXPECT_TRUE(curve.eq(curve.mul(g, g), curve.exp(g, Nat{2})));
  // 2P + P == 3P, mixing representations with different Z coordinates.
  const Elem g2 = curve.exp(g, Nat{2});
  EXPECT_TRUE(curve.eq(curve.mul(g2, g), curve.exp(g, Nat{3})));
}

TEST(EcGroup, JacobianEqIgnoresRepresentation) {
  // exp produces a different Jacobian representative than repeated mul, but
  // eq must see through it.
  const EcGroup curve{nist_p256()};
  const Elem g = curve.generator();
  Elem acc = curve.identity();
  for (int i = 0; i < 5; ++i) acc = curve.mul(acc, g);
  EXPECT_TRUE(curve.eq(acc, curve.exp(g, Nat{5})));
}

TEST(EcGroup, IdentitySerializesDistinctly) {
  const EcGroup curve{nist_p192()};
  const auto id_bytes = curve.serialize(curve.identity());
  EXPECT_TRUE(curve.is_identity(curve.deserialize(id_bytes)));
  const auto g_bytes = curve.serialize(curve.generator());
  EXPECT_NE(id_bytes, g_bytes);
}

TEST(EcGroup, DeserializeRejectsOffCurvePoint) {
  const EcGroup curve{nist_p192()};
  auto bytes = curve.serialize(curve.generator());
  bytes.back() ^= 1;  // corrupt y
  EXPECT_THROW((void)curve.deserialize(bytes), std::invalid_argument);
}

// ---- canonical EC encodings ----
//
// 0x04 || x || y with x, y < p on the curve, or all zeros for the identity,
// is the only accepted form of an element. A coordinate field holds values
// up to 2^(8 fb) - 1, so x + p or y + p fits whenever the coordinate is
// below 2^(8 fb) - p: a second encoding of the same point, which decode
// must refuse rather than reduce.

std::vector<std::uint8_t> encode_point(const CurveParams& params,
                                       const Nat& x, const Nat& y) {
  const std::size_t fb = (params.p.bit_length() + 7) / 8;
  std::vector<std::uint8_t> out{0x04};
  for (const Nat& c : {x, y}) {
    const auto b = c.to_bytes_be(fb);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

Nat curve_rhs(const CurveParams& params, const Nat& x) {
  const Nat& p = params.p;
  return (x * x % p * x + params.a * x + params.b) % p;
}

// A y on the curve at x (standard form), if x is the abscissa of a point.
std::optional<Nat> curve_y(const CurveParams& params, const Nat& x) {
  const mpz::FpCtx f{params.p};
  const auto y = f.sqrt(f.to(curve_rhs(params, x)));
  if (!y) return std::nullopt;
  return f.from(*y);
}

TEST(EcGroup, DeserializeRejectsNonCanonicalCoordinates) {
  // P-192: (0, y) is on the curve and 0 + p fits the 24-byte field.
  const CurveParams p192 = nist_p192();
  const EcGroup curve{p192};
  const Nat y0 = *curve_y(p192, Nat{});
  const Elem pt = curve.from_affine(Nat{}, y0);
  EXPECT_TRUE(curve.eq(curve.deserialize(encode_point(p192, Nat{}, y0)), pt));
  EXPECT_THROW((void)curve.deserialize(encode_point(p192, p192.p, y0)),
               std::invalid_argument);
  // Its y + p twin: P-192 leaves room above p only for y <= 2^64, so the
  // twin is built on y^2 = x^3 + 2x + 3 over F_97 (one-byte coordinates,
  // room for every y + p), the curve ec_exhaustive_test enumerates.
  CurveParams tiny{.name = "ecc-f97", .p = Nat{97}, .a = Nat{2}, .b = Nat{3}};
  tiny.gx = Nat{};
  tiny.gy = *curve_y(tiny, Nat{});
  tiny.order = Nat{5};
  const EcGroup small{tiny};
  const Elem g = small.generator();
  EXPECT_TRUE(
      small.eq(small.deserialize(encode_point(tiny, Nat{}, tiny.gy)), g));
  EXPECT_THROW(
      (void)small.deserialize(encode_point(tiny, Nat{}, tiny.gy + tiny.p)),
      std::invalid_argument);
  EXPECT_THROW((void)small.deserialize(encode_point(tiny, tiny.p, tiny.gy)),
               std::invalid_argument);
  // The identity has one encoding too.
  auto id = curve.serialize(curve.identity());
  id.back() = 1;
  EXPECT_THROW((void)curve.deserialize(id), std::invalid_argument);
}

TEST(EcGroup, DeserializePropertyOverRandomEncodings) {
  // Every accepted encoding re-serializes to itself; exactly the canonical
  // ones (judged here on plain Nat arithmetic) are accepted.
  ChaChaRng rng{8};
  for (const CurveParams& params : {nist_p192(), nist_p256()}) {
    const EcGroup curve{params};
    const Nat& p = params.p;
    const std::size_t fb = (p.bit_length() + 7) / 8;
    const Nat room = Nat::pow2(8 * fb) - p;  // values in [p, 2^(8 fb))
    const auto on_curve_x = [&](const Nat& bound) {
      for (;;) {
        const Nat x = rng.below(bound);
        if (const auto y = curve_y(params, x)) return std::pair{x, *y};
      }
    };
    int accepted = 0, refused = 0;
    for (int i = 0; i < 400; ++i) {
      std::vector<std::uint8_t> bytes(curve.element_bytes());
      switch (i % 5) {
        case 0:  // uniform payload under either prefix
          rng.fill(bytes);
          bytes[0] = i % 2 == 0 ? 0x04 : 0x00;
          break;
        case 1: {  // an on-curve point
          const auto [x, y] = on_curve_x(p);
          bytes = encode_point(params, x, y);
          break;
        }
        case 2: {  // the x + p twin of an on-curve point
          const auto [x, y] = on_curve_x(room < p ? room : p);
          bytes = encode_point(params, x + p, y);
          break;
        }
        case 3: {  // an on-curve x with a y field at or above p
          const auto [x, y] = on_curve_x(p);
          bytes = encode_point(params, x, p + rng.below(room));
          break;
        }
        default:  // a group element, possibly the identity
          bytes = curve.serialize(
              i % 10 == 4 ? curve.identity() : curve.exp_g(rng.below(p)));
      }
      const Nat x = Nat::from_bytes_be({bytes.data() + 1, fb});
      const Nat y = Nat::from_bytes_be({bytes.data() + 1 + fb, fb});
      const bool identity = bytes[0] == 0x00 && x.is_zero() && y.is_zero();
      const bool canonical =
          identity || (bytes[0] == 0x04 && x < p && y < p &&
                       y * y % p == curve_rhs(params, x));
      if (!canonical) {
        ++refused;
        EXPECT_THROW((void)curve.deserialize(bytes), std::invalid_argument)
            << params.name << " case " << i % 5;
        continue;
      }
      ++accepted;
      EXPECT_EQ(curve.serialize(curve.deserialize(bytes)), bytes)
          << params.name << " case " << i % 5;
    }
    EXPECT_GE(accepted, 160) << params.name;
    EXPECT_GE(refused, 160) << params.name;
  }
}

TEST(MeteredGroup, CountsAndForwards) {
  const auto inner = make_group(GroupId::kEcP192);
  const MeteredGroup g{*inner};
  ChaChaRng rng{6};
  const Nat x = g.random_scalar(rng);
  runtime::MetricsBuffer buf;
  Elem e;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    e = g.exp_g(x);                   // fixed-base: group_exp_g
    (void)g.exp(e, x);                // variable-base: group_exp
    (void)g.dual_exp(e, x, e, x);     // one group_dual_exp, no muls
    (void)g.mul(e, e);
    (void)g.inv(e);
    (void)g.serialize(e);
    const std::vector<Elem> two{e, e};
    (void)g.serialize_many(two);      // one serialization per element
  }
  runtime::MetricsRegistry reg;
  reg.absorb(buf);
  using runtime::CryptoOp;
  EXPECT_EQ(reg.total(CryptoOp::kGroupExpG), 1u);
  EXPECT_EQ(reg.total(CryptoOp::kGroupExp), 1u);
  EXPECT_EQ(reg.total(CryptoOp::kGroupDualExp), 1u);
  EXPECT_EQ(reg.total(CryptoOp::kGroupMul), 1u);
  EXPECT_EQ(reg.total(CryptoOp::kGroupInv), 1u);
  EXPECT_EQ(reg.total(CryptoOp::kGroupSerialize), 3u);
  // Forwarded results match the inner group.
  EXPECT_TRUE(inner->eq(e, inner->exp_g(x)));
}

// Forwards every call to `inner`, counting how often dual_exp reaches it.
class DualExpSpy final : public Group {
 public:
  explicit DualExpSpy(const Group& inner) : inner_(inner) {}
  mutable std::size_t dual_exps = 0;

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
  Elem inv(const Elem& x) const override { return inner_.inv(x); }
  bool eq(const Elem& x, const Elem& y) const override {
    return inner_.eq(x, y);
  }
  bool is_identity(const Elem& x) const override {
    return inner_.is_identity(x);
  }
  std::vector<std::uint8_t> serialize(const Elem& x) const override {
    return inner_.serialize(x);
  }
  Elem deserialize(std::span<const std::uint8_t> bytes) const override {
    return inner_.deserialize(bytes);
  }
  std::size_t element_bytes() const override {
    return inner_.element_bytes();
  }
  Elem dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                const Nat& ey) const override {
    ++dual_exps;
    return inner_.dual_exp(x, ex, y, ey);
  }

 private:
  const Group& inner_;
};

TEST(GroupDecorators, ForwardDualExpToTheInnerGroup) {
  // SchnorrGroup's Montgomery-native dual_exp ladder must stay reachable
  // through MeteredGroup: it hands the call to the inner group exactly once
  // instead of running the generic ladder over mul().
  const auto inner = make_group(GroupId::kDlTest256);
  const DualExpSpy spy{*inner};
  const MeteredGroup metered{spy};
  ChaChaRng rng{7};
  const Elem x = inner->exp_g(inner->random_nonzero_scalar(rng));
  const Elem y = inner->exp_g(inner->random_nonzero_scalar(rng));
  const Nat ex = inner->random_scalar(rng);
  const Nat ey = inner->random_scalar(rng);
  EXPECT_TRUE(
      inner->eq(metered.dual_exp(x, ex, y, ey), inner->dual_exp(x, ex, y, ey)));
  EXPECT_EQ(spy.dual_exps, 1u);
}

class FixedBaseOverGroups : public ::testing::TestWithParam<GroupId> {};

TEST_P(FixedBaseOverGroups, MatchesGenericExponentiation) {
  // exp_g uses the comb table; it must agree with the generic double-and-add
  // for random and edge-case scalars.
  const auto g = make_group(GetParam());
  ChaChaRng rng{7};
  const Elem gen = g->generator();
  for (int i = 0; i < 10; ++i) {
    const Nat s = g->random_scalar(rng);
    EXPECT_TRUE(g->eq(g->exp_g(s), g->exp(gen, s)));
  }
  for (const Nat& s : {Nat{}, Nat{1}, Nat{2}, Nat{15}, Nat{16},
                       Nat::sub(g->order(), Nat{1})}) {
    EXPECT_TRUE(g->eq(g->exp_g(s), g->exp(gen, s))) << s.to_dec();
  }
}

INSTANTIATE_TEST_SUITE_P(AllGroups, FixedBaseOverGroups,
                         ::testing::ValuesIn(fast_group_ids()),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(FixedBase, TableDirectUse) {
  const auto g = make_group(GroupId::kEcP192);
  ChaChaRng rng{8};
  // A table over an arbitrary base, not just the generator.
  const Elem base = g->exp_g(g->random_nonzero_scalar(rng));
  const FixedBaseTable table{*g, base, g->order().bit_length()};
  EXPECT_EQ(table.windows(), (g->order().bit_length() + 3) / 4);
  const Nat s = g->random_scalar(rng);
  EXPECT_TRUE(g->eq(g->exp_fixed(table, s), g->exp(base, s)));
  // Scalar wider than the table falls back to generic exp.
  const FixedBaseTable narrow{*g, base, 8};
  const Nat wide = Nat::from_hex("1ffff");
  EXPECT_TRUE(g->eq(g->exp_fixed(narrow, wide), g->exp(base, wide)));
}

TEST(GroupFactory, NamesAreStable) {
  EXPECT_EQ(to_string(GroupId::kDl1024), "dl-1024");
  EXPECT_EQ(to_string(GroupId::kEcP256), "ecc-p256");
}

TEST(GroupFactory, EveryGroupIdRoundTripsThroughItsName) {
  for (const GroupId id :
       {GroupId::kDl1024, GroupId::kDl2048, GroupId::kDl3072,
        GroupId::kEcP192, GroupId::kEcP224, GroupId::kEcP256,
        GroupId::kDlTest256}) {
    const std::string name = to_string(id);
    EXPECT_EQ(name, make_group(id)->name());
    EXPECT_EQ(parse_group_id(name), id) << name;
  }
  for (const char* bad : {"", "dl-512", "DL-1024", "dl-1024 ", "ecc-p256+metered"}) {
    try {
      (void)parse_group_id(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("'" + std::string{bad} + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace ppgr::group
