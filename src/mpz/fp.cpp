#include "mpz/fp.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace ppgr::mpz {

FpCtx::FpCtx(Nat p) : mont_(std::move(p)) {}

void FpCtx::random_limbs(Rng& rng, Limb* out) const {
  rng.below_limbs(p().limbs(), {out, mont_.limbs()});
  mont_.to_mont_limbs(out, out);
}

Nat FpCtx::random(Rng& rng) const {
  Limb r[MontCtx::kCiosMaxLimbs];
  random_limbs(rng, r);
  return Nat::from_limbs({r, mont_.limbs()});
}

Nat FpCtx::random_nonzero(Rng& rng) const {
  // 0 is the only value whose residue is 0, so this redraws exactly the
  // draws Rng::nonzero_below redraws.
  for (;;) {
    Nat x = random(rng);
    if (!x.is_zero()) return x;
  }
}

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
  // a conversion out and back in around its binary kernel).
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
  if (a.is_zero()) return a;
  if (p().bit(1)) {
    // p ≡ 3 (mod 4): a^((p+1)/4) is a root iff a is a square.
    Nat r = pow(a, Nat::add(p(), Nat{1}).shr(2));
    if (sqr(r) != a) return std::nullopt;
    return r;
  }
  // Tonelli–Shanks, p - 1 = q·2^s with q odd, around the least non-residue
  // z >= 2 (Euler's criterion: z^((p-1)/2) = -1).
  const Nat p1 = Nat::sub(p(), Nat{1});
  std::size_t s = 1;
  while (!p1.bit(s)) ++s;
  const Nat q = p1.shr(s);
  const Nat half = p1.shr(1);
  const Nat minus_one = neg(one());
  Nat z = add(one(), one());
  while (pow(z, half) != minus_one) z = add(z, one());
  Nat c = pow(z, q);
  Nat t = pow(a, q);
  Nat r = pow(a, Nat::add(q, Nat{1}).shr(1));
  std::size_t m = s;
  while (t != one()) {
    // The least i with t^(2^i) = 1; i reaching m means a is not a square.
    std::size_t i = 0;
    for (Nat t2 = t; t2 != one(); t2 = sqr(t2))
      if (++i == m) return std::nullopt;
    Nat b = c;  // c^(2^(m-i-1))
    for (std::size_t j = i + 1; j < m; ++j) b = sqr(b);
    m = i;
    c = sqr(b);
    t = mul(t, c);
    r = mul(r, b);
  }
  return r;
}

}  // namespace ppgr::mpz
