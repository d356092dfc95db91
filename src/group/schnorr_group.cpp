#include "group/schnorr_group.h"

#include <stdexcept>
#include <utility>

#include "mpz/modarith.h"

namespace ppgr::group {

SchnorrGroup::SchnorrGroup(std::string name, Nat safe_prime)
    : name_(std::move(name)), mont_(std::move(safe_prime)) {
  const Nat& p = mont_.modulus();
  if (p < Nat{7}) throw std::invalid_argument("SchnorrGroup: p too small");
  q_ = Nat::sub(p, Nat{1}).shr(1);
  gen_ = mont_.to_mont(Nat{4});
}

Elem SchnorrGroup::generator() const { return Elem{.a = gen_}; }

Elem SchnorrGroup::exp_g(const Nat& scalar) const {
  std::call_once(gen_table_once_, [&] {
    gen_table_ = std::make_unique<FixedBaseTable>(*this, generator(),
                                                  q_.bit_length());
  });
  return gen_table_->exp(*this, scalar);
}

Elem SchnorrGroup::identity() const { return Elem{.a = mont_.one_mont()}; }

Elem SchnorrGroup::mul(const Elem& x, const Elem& y) const {
  return Elem{.a = mont_.mul(x.a, y.a)};
}

Elem SchnorrGroup::exp(const Elem& base, const Nat& scalar) const {
  return Elem{.a = mont_.exp(base.a, scalar)};
}

Elem SchnorrGroup::dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                            const Nat& ey) const {
  return Elem{.a = mont_.dual_exp(x.a, ex, y.a, ey)};
}

Elem SchnorrGroup::inv(const Elem& x) const {
  // Binary field inverse (mpz::invmod): far cheaper than the x^(q-1)
  // exponentiation (a full-width ladder), and the inverse is unique in
  // Z_p*, so the result is bit-identical. Inverting the Montgomery form xR
  // directly would yield x^{-1}R^{-1}; convert out and back in instead.
  const auto s = mpz::invmod(mont_.from_mont(x.a), mont_.modulus());
  if (!s.has_value())  // impossible for subgroup elements (p prime, x != 0)
    throw std::domain_error("SchnorrGroup::inv: element not invertible");
  return Elem{.a = mont_.to_mont(*s)};
}

bool SchnorrGroup::eq(const Elem& x, const Elem& y) const { return x.a == y.a; }

bool SchnorrGroup::is_identity(const Elem& x) const {
  return x.a == mont_.one_mont();
}

std::size_t SchnorrGroup::element_bytes() const {
  return (mont_.modulus().bit_length() + 7) / 8;
}

std::vector<std::uint8_t> SchnorrGroup::serialize(const Elem& x) const {
  return mont_.from_mont(x.a).to_bytes_be(element_bytes());
}

Elem SchnorrGroup::deserialize(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() != element_bytes())
    throw std::invalid_argument("SchnorrGroup::deserialize: bad length");
  const Nat v = Nat::from_bytes_be(bytes);
  if (v.is_zero() || v >= mont_.modulus())
    throw std::invalid_argument("SchnorrGroup::deserialize: out of range");
  // Subgroup membership (the QRs mod p); this check dominates decode cost.
  if (mpz::jacobi(v, mont_.modulus()) != 1)
    throw std::invalid_argument("SchnorrGroup::deserialize: not a residue");
  return Elem{.a = mont_.to_mont(v)};
}

}  // namespace ppgr::group
