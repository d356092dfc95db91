#include "mpz/fp.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "mpz/modarith.h"

namespace ppgr::mpz {

FpCtx::FpCtx(Nat p) : mont_(std::move(p)) {}

Nat FpCtx::to(const Nat& standard) const {
  return mont_.to_mont(standard >= p() ? standard % p() : standard);
}

Nat FpCtx::to_signed(const Int& v) const { return mont_.to_mont(v.mod(p())); }

Int FpCtx::from_centered(const Nat& elem) const {
  const Nat std_rep = from(elem);
  const Nat half = p().shr(1);
  if (std_rep > half) return Int{Nat::sub(p(), std_rep), /*negative=*/true};
  return Int::from_nat(std_rep);
}

Nat FpCtx::neg(const Nat& a) const {
  if (a.is_zero()) return a;
  return Nat::sub(p(), a);
}

Nat FpCtx::inv(const Nat& a) const {
  if (a.is_zero()) throw std::domain_error("FpCtx::inv: zero has no inverse");
  // Fermat: a^(p-2). Keeps everything in Montgomery form (invmod would need
  // two conversions plus a general divrem chain; exp is simpler here).
  return pow(a, Nat::sub(p(), Nat{2}));
}

std::vector<Nat> FpCtx::inv_many(std::span<const Nat> xs) const {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i].is_zero())
      throw std::domain_error("FpCtx::inv_many: zero at index " +
                              std::to_string(i) + " has no inverse");
  }
  std::vector<Nat> out(xs.size());
  mont_.inv_many(xs, out);
  return out;
}

std::optional<Nat> FpCtx::sqrt(const Nat& a) const {
  const auto root = sqrtmod(from(a), p());
  if (!root) return std::nullopt;
  return to(*root);
}

}  // namespace ppgr::mpz
