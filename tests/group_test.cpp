// Tests for the group layer: abstract group laws over every instantiation,
// safe-prime parameter validation, elliptic-curve specifics, serialization,
// and the metering / acceleration decorators.
#include <gtest/gtest.h>

#include "group/accel_group.h"
#include "group/fixed_base.h"
#include "group/ec_group.h"
#include "group/group.h"
#include "group/metered_group.h"
#include "group/schnorr_group.h"
#include "mpz/modarith.h"
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
  EXPECT_EQ(mpz::jacobi(Nat{4}, sg->modulus()), 1);
}

TEST(SchnorrGroup, DeserializeRejectsNonResidue) {
  for (const GroupId id : {GroupId::kDlTest256, GroupId::kDl1024}) {
    const auto g = make_group(id);
    auto* sg = dynamic_cast<SchnorrGroup*>(g.get());
    const Nat& p = sg->modulus();
    const std::size_t len = g->element_bytes();
    const auto rejects = [&](std::span<const std::uint8_t> bytes) {
      EXPECT_THROW((void)g->deserialize(bytes), std::invalid_argument)
          << g->name() << ", " << bytes.size() << " bytes";
    };
    // Non-residues: the least one, and p - 1 (-1 is one for p ≡ 3 mod 4).
    Nat z{2};
    while (mpz::jacobi(z, p) != -1) z += Nat{1};
    rejects(z.to_bytes_be(len));
    rejects(Nat::sub(p, Nat{1}).to_bytes_be(len));
    // Out of range: zero, p, p + 1 and the all-ones encoding.
    rejects(Nat{}.to_bytes_be(len));
    rejects(p.to_bytes_be(len));
    rejects(Nat::add(p, Nat{1}).to_bytes_be(len));
    rejects(std::vector<std::uint8_t>(len, 0xff));
    // Wrong lengths around a valid encoding.
    std::vector<std::uint8_t> ok = g->serialize(g->generator());
    EXPECT_EQ(g->deserialize(ok).a, g->generator().a) << g->name();
    rejects(std::span<const std::uint8_t>(ok).subspan(1));
    rejects({});
    ok.insert(ok.begin(), 0);
    rejects(ok);
  }
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
  // through the decorator stack: each decorator hands the call to the inner
  // group exactly once instead of running the generic ladder over mul().
  const auto inner = make_group(GroupId::kDlTest256);
  const DualExpSpy spy{*inner};
  const AcceleratedGroup accel{spy};
  const MeteredGroup metered{spy};
  ChaChaRng rng{7};
  const Elem x = inner->exp_g(inner->random_nonzero_scalar(rng));
  const Elem y = inner->exp_g(inner->random_nonzero_scalar(rng));
  const Nat ex = inner->random_scalar(rng);
  const Nat ey = inner->random_scalar(rng);
  const Elem want = inner->dual_exp(x, ex, y, ey);
  for (const Group* deco : {static_cast<const Group*>(&accel),
                            static_cast<const Group*>(&metered)}) {
    spy.dual_exps = 0;
    EXPECT_TRUE(inner->eq(deco->dual_exp(x, ex, y, ey), want));
    EXPECT_EQ(spy.dual_exps, 1u);
  }
}

TEST(AcceleratedGroup, BaseTableHitsAreCountedAndValueIdentical) {
  const auto inner = make_group(GroupId::kDlTest256);
  AcceleratedGroup accel{*inner};
  ChaChaRng rng{8};
  const Elem base = inner->exp_g(inner->random_nonzero_scalar(rng));
  const Elem other = inner->exp_g(inner->random_nonzero_scalar(rng));
  accel.set_base_table(std::make_shared<const FixedBaseTable>(
      *inner, base, inner->order().bit_length()));
  const Nat s = inner->random_scalar(rng);
  runtime::MetricsBuffer buf;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    EXPECT_TRUE(inner->eq(accel.exp(base, s), inner->exp(base, s)));
    EXPECT_TRUE(inner->eq(accel.exp(other, s), inner->exp(other, s)));
  }
  runtime::MetricsRegistry reg;
  reg.absorb(buf);
  EXPECT_EQ(reg.total(runtime::CryptoOp::kAccelFixedBaseExp), 1u);
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
  EXPECT_TRUE(g->eq(table.exp(*g, s), g->exp(base, s)));
  // Scalar wider than the table falls back to generic exp.
  const FixedBaseTable narrow{*g, base, 8};
  const Nat wide = Nat::from_hex("1ffff");
  EXPECT_TRUE(g->eq(narrow.exp(*g, wide), g->exp(base, wide)));
}

TEST(GroupFactory, NamesAreStable) {
  EXPECT_EQ(to_string(GroupId::kDl1024), "dl-1024");
  EXPECT_EQ(to_string(GroupId::kEcP256), "ecc-p256");
}

}  // namespace
}  // namespace ppgr::group
