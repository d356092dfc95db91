#include "group/ec_group.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "runtime/metrics.h"

namespace ppgr::group {

namespace {
// Jacobian <-> affine convention: x = X/Z^2, y = Y/Z^3; identity has
// infinity=true (coordinates unused).
}  // namespace

EcGroup::EcGroup(CurveParams params)
    : params_(std::move(params)), field_(params_.p) {
  a_mont_ = field_.to(params_.a);
  b_mont_ = field_.to(params_.b);
  if (!on_curve(params_.gx, params_.gy))
    throw std::invalid_argument("EcGroup: base point not on curve");
  gen_ = Elem{.a = field_.to(params_.gx),
              .b = field_.to(params_.gy),
              .c = field_.one()};
}

bool EcGroup::on_curve(const Nat& x, const Nat& y) const {
  const Nat xm = field_.to(x), ym = field_.to(y);
  const Nat lhs = field_.sqr(ym);
  const Nat rhs = field_.add(
      field_.add(field_.mul(field_.sqr(xm), xm), field_.mul(a_mont_, xm)),
      b_mont_);
  return lhs == rhs;
}

Elem EcGroup::from_affine(const Nat& x, const Nat& y) const {
  if (!on_curve(x, y))
    throw std::invalid_argument("EcGroup::from_affine: point not on curve");
  return Elem{.a = field_.to(x), .b = field_.to(y), .c = field_.one()};
}

std::pair<Nat, Nat> EcGroup::to_affine(const Elem& pt) const {
  if (pt.infinity)
    throw std::domain_error("EcGroup::to_affine: identity has no coordinates");
  const Nat zinv = field_.inv(pt.c);
  const Nat zinv2 = field_.sqr(zinv);
  const Nat x = field_.mul(pt.a, zinv2);
  const Nat y = field_.mul(pt.b, field_.mul(zinv2, zinv));
  return {field_.from(x), field_.from(y)};
}

Elem EcGroup::dbl(const Elem& pt) const {
  if (pt.infinity || pt.b.is_zero()) return identity();
  const auto& f = field_;
  // a = -3 speedup: M = 3(X - Z^2)(X + Z^2).
  const Nat z2 = f.sqr(pt.c);
  const Nat m = [&] {
    if (params_.a == Nat::sub(params_.p, Nat{3})) {
      const Nat t = f.mul(f.sub(pt.a, z2), f.add(pt.a, z2));
      return f.add(f.add(t, t), t);
    }
    const Nat x2 = f.sqr(pt.a);
    return f.add(f.add(f.add(x2, x2), x2), f.mul(a_mont_, f.sqr(z2)));
  }();
  const Nat y2 = f.sqr(pt.b);
  const Nat s4 = f.mul(pt.a, y2);
  const Nat s = f.add(f.add(s4, s4), f.add(s4, s4));  // 4XY^2
  const Nat x3 = f.sub(f.sqr(m), f.add(s, s));
  const Nat y4 = f.sqr(y2);
  Nat y8 = f.add(y4, y4);
  y8 = f.add(y8, y8);
  y8 = f.add(y8, y8);  // 8Y^4
  const Nat y3 = f.sub(f.mul(m, f.sub(s, x3)), y8);
  const Nat yz = f.mul(pt.b, pt.c);
  return Elem{.a = x3, .b = y3, .c = f.add(yz, yz)};
}

Elem EcGroup::mul(const Elem& x, const Elem& y) const {
  if (x.infinity) return y;
  if (y.infinity) return x;
  const auto& f = field_;
  const Nat z1sq = f.sqr(x.c), z2sq = f.sqr(y.c);
  const Nat u1 = f.mul(x.a, z2sq);
  const Nat u2 = f.mul(y.a, z1sq);
  const Nat s1 = f.mul(x.b, f.mul(z2sq, y.c));
  const Nat s2 = f.mul(y.b, f.mul(z1sq, x.c));
  if (u1 == u2) {
    if (s1 != s2) return identity();  // P + (-P)
    return dbl(x);
  }
  const Nat h = f.sub(u2, u1);
  const Nat r = f.sub(s2, s1);
  const Nat h2 = f.sqr(h);
  const Nat h3 = f.mul(h2, h);
  const Nat u1h2 = f.mul(u1, h2);
  const Nat x3 = f.sub(f.sub(f.sqr(r), h3), f.add(u1h2, u1h2));
  const Nat y3 = f.sub(f.mul(r, f.sub(u1h2, x3)), f.mul(s1, h3));
  const Nat z3 = f.mul(h, f.mul(x.c, y.c));
  return Elem{.a = x3, .b = y3, .c = z3};
}

Elem EcGroup::exp(const Elem& base, const Nat& scalar) const {
  if (base.infinity || scalar.is_zero()) return identity();
  // 4-bit left-to-right window.
  std::array<Elem, 16> table;
  table[0] = identity();
  table[1] = base;
  for (std::size_t i = 2; i < 16; ++i) table[i] = mul(table[i - 1], base);

  const std::size_t nbits = scalar.bit_length();
  const std::size_t windows = (nbits + 3) / 4;
  Elem acc = identity();
  bool started = false;
  for (std::size_t w = windows; w-- > 0;) {
    if (started) {
      acc = dbl(acc);
      acc = dbl(acc);
      acc = dbl(acc);
      acc = dbl(acc);
    }
    std::size_t nib = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      const std::size_t idx = w * 4 + b;
      if (idx < nbits && scalar.bit(idx)) nib |= (1u << b);
    }
    if (nib != 0) {
      acc = started ? mul(acc, table[nib]) : table[nib];
      started = true;
    }
  }
  return acc;
}

Elem EcGroup::exp_g(const Nat& scalar) const {
  std::call_once(gen_table_once_, [&] {
    gen_table_ = std::make_unique<FixedBaseTable>(*this, gen_);
  });
  return gen_table_->exp(*this, scalar);
}

Elem EcGroup::inv(const Elem& x) const {
  if (x.infinity) return x;
  return Elem{.a = x.a, .b = field_.neg(x.b), .c = x.c};
}

bool EcGroup::eq(const Elem& x, const Elem& y) const {
  if (x.infinity || y.infinity) return x.infinity == y.infinity;
  // Cross-multiplied Jacobian comparison: X1 Z2^2 == X2 Z1^2 and
  // Y1 Z2^3 == Y2 Z1^3.
  const auto& f = field_;
  const Nat z1sq = f.sqr(x.c), z2sq = f.sqr(y.c);
  if (f.mul(x.a, z2sq) != f.mul(y.a, z1sq)) return false;
  return f.mul(x.b, f.mul(z2sq, y.c)) == f.mul(y.b, f.mul(z1sq, x.c));
}

std::size_t EcGroup::element_bytes() const {
  return 1 + 2 * ((field_.bits() + 7) / 8);
}

std::vector<std::uint8_t> EcGroup::serialize(const Elem& x) const {
  std::vector<std::uint8_t> out(element_bytes(), 0);
  if (x.infinity) return out;  // all-zero encoding for the identity
  const auto [ax, ay] = to_affine(x);
  const std::size_t fb = (field_.bits() + 7) / 8;
  out[0] = 0x04;
  const auto xb = ax.to_bytes_be(fb), yb = ay.to_bytes_be(fb);
  std::copy(xb.begin(), xb.end(), out.begin() + 1);
  std::copy(yb.begin(), yb.end(), out.begin() + 1 + static_cast<std::ptrdiff_t>(fb));
  return out;
}

std::vector<std::uint8_t> EcGroup::serialize_many(
    std::span<const Elem> xs) const {
  const std::size_t eb = element_bytes();
  const std::size_t fb = (field_.bits() + 7) / 8;
  std::vector<std::uint8_t> out(xs.size() * eb, 0);
  // One batched inversion over every finite point's Z coordinate.
  std::vector<Nat> zs;
  zs.reserve(xs.size());
  for (const Elem& pt : xs)
    if (!pt.infinity) zs.push_back(pt.c);
  if (zs.empty()) return out;  // all identities: all-zero encodings
  const std::vector<Nat> zinvs = field_.inv_many(zs);
  runtime::count_op(runtime::CryptoOp::kAccelBatchInverse, zinvs.size());
  std::size_t zi = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Elem& pt = xs[i];
    if (pt.infinity) continue;
    const Nat& zinv = zinvs[zi++];
    const Nat zinv2 = field_.sqr(zinv);
    const Nat ax = field_.from(field_.mul(pt.a, zinv2));
    const Nat ay = field_.from(field_.mul(pt.b, field_.mul(zinv2, zinv)));
    std::uint8_t* dst = out.data() + i * eb;
    dst[0] = 0x04;
    const auto xb = ax.to_bytes_be(fb), yb = ay.to_bytes_be(fb);
    std::copy(xb.begin(), xb.end(), dst + 1);
    std::copy(yb.begin(), yb.end(), dst + 1 + fb);
  }
  return out;
}

Elem EcGroup::deserialize(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() != element_bytes())
    throw std::invalid_argument("EcGroup::deserialize: bad length");
  if (bytes[0] == 0x00) return identity();
  if (bytes[0] != 0x04)
    throw std::invalid_argument("EcGroup::deserialize: bad prefix");
  const std::size_t fb = (field_.bits() + 7) / 8;
  const Nat x = Nat::from_bytes_be(bytes.subspan(1, fb));
  const Nat y = Nat::from_bytes_be(bytes.subspan(1 + fb, fb));
  return from_affine(x, y);  // validates curve membership
}

CurveParams nist_p192() {
  const Nat p = Nat::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff");
  return CurveParams{
      .name = "ecc-p192",
      .p = p,
      .a = Nat::sub(p, Nat{3}),
      .b = Nat::from_hex("64210519e59c80e70fa7e9ab72243049feb8deecc146b9b1"),
      .gx = Nat::from_hex("188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012"),
      .gy = Nat::from_hex("07192b95ffc8da78631011ed6b24cdd573f977a11e794811"),
      .order = Nat::from_hex("ffffffffffffffffffffffff99def836146bc9b1b4d22831"),
  };
}

CurveParams nist_p224() {
  const Nat p =
      Nat::from_hex("ffffffffffffffffffffffffffffffff000000000000000000000001");
  return CurveParams{
      .name = "ecc-p224",
      .p = p,
      .a = Nat::sub(p, Nat{3}),
      .b = Nat::from_hex(
          "b4050a850c04b3abf54132565044b0b7d7bfd8ba270b39432355ffb4"),
      .gx = Nat::from_hex(
          "b70e0cbd6bb4bf7f321390b94a03c1d356c21122343280d6115c1d21"),
      .gy = Nat::from_hex(
          "bd376388b5f723fb4c22dfe6cd4375a05a07476444d5819985007e34"),
      .order = Nat::from_hex(
          "ffffffffffffffffffffffffffff16a2e0b8f03e13dd29455c5c2a3d"),
  };
}

CurveParams nist_p256() {
  const Nat p = Nat::from_hex(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  return CurveParams{
      .name = "ecc-p256",
      .p = p,
      .a = Nat::sub(p, Nat{3}),
      .b = Nat::from_hex(
          "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"),
      .gx = Nat::from_hex(
          "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
      .gy = Nat::from_hex(
          "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
      .order = Nat::from_hex(
          "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"),
  };
}

}  // namespace ppgr::group
