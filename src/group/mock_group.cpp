#include "group/mock_group.h"

#include <stdexcept>

namespace ppgr::group {

namespace {

constexpr std::uint64_t kP = (1ULL << 61) - 1;  // Mersenne prime M61

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
  // Mersenne reduction: t = hi*2^61 + lo ≡ hi + lo (mod 2^61 - 1).
  std::uint64_t r = static_cast<std::uint64_t>(t & kP) +
                    static_cast<std::uint64_t>(t >> 61);
  if (r >= kP) r -= kP;
  return r;
}

std::uint64_t powmod61(std::uint64_t base, std::uint64_t e) {
  std::uint64_t acc = 1;
  while (e != 0) {
    if (e & 1) acc = mulmod(acc, base);
    base = mulmod(base, base);
    e >>= 1;
  }
  return acc;
}

}  // namespace

MockGroup::MockGroup(std::string name)
    : name_(std::move(name)), order_(Nat{kP - 1}) {}

Elem MockGroup::generator() const { return Elem{.a = Nat{3}}; }

Elem MockGroup::identity() const { return Elem{.a = Nat{1}}; }

Elem MockGroup::mul(const Elem& x, const Elem& y) const {
  return Elem{.a = Nat{mulmod(x.a.to_limb(), y.a.to_limb())}};
}

Elem MockGroup::exp(const Elem& base, const Nat& scalar) const {
  // Reduce the (possibly huge) protocol scalar mod ord-multiple p-1; the
  // result is identical because x^(p-1) = 1 for all x in Z_p*.
  const std::uint64_t e = (scalar % order_).to_limb();
  return Elem{.a = Nat{powmod61(base.a.to_limb(), e)}};
}

Elem MockGroup::dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                         const Nat& ey) const {
  return mul(exp(x, ex), exp(y, ey));
}

Elem MockGroup::inv(const Elem& x) const {
  return Elem{.a = Nat{powmod61(x.a.to_limb(), kP - 2)}};
}

bool MockGroup::eq(const Elem& x, const Elem& y) const { return x.a == y.a; }

bool MockGroup::is_identity(const Elem& x) const { return x.a.is_one(); }

std::vector<std::uint8_t> MockGroup::serialize(const Elem& x) const {
  return x.a.to_bytes_be(element_bytes());
}

Elem MockGroup::deserialize(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() != element_bytes())
    throw std::invalid_argument("MockGroup::deserialize: bad length");
  const Nat v = Nat::from_bytes_be(bytes);
  if (v.is_zero() || v >= Nat{kP})
    throw std::invalid_argument("MockGroup::deserialize: out of range");
  return Elem{.a = v};
}

}  // namespace ppgr::group
