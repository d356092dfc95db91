#include "mpz/modarith.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

namespace ppgr::mpz {

namespace {

using U128 = unsigned __int128;

// invmod's binary kernel runs on fixed stack limb buffers: no division and
// no allocation. It is variable-time, like the Euclid loop it replaced; its
// hot inputs are public wire bytes and ciphertext components. kMaxLimbs
// matches MontCtx's fused CIOS bound (4096 bits; the widest shipped modulus,
// dl-3072, is 48 limbs).
constexpr std::size_t kMaxLimbs = 64;
// One spare limb: Kaliski's r and s reach 2m.
using Buf = std::array<Limb, kMaxLimbs + 1>;
constexpr std::size_t kZero = static_cast<std::size_t>(-1);

int cmp(const Limb* a, const Limb* b, std::size_t n) {
  for (std::size_t i = n; i-- > 0;)
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  return 0;
}

bool is_one(const Limb* a, std::size_t n) {
  if (a[0] != 1) return false;
  for (std::size_t i = 1; i < n; ++i)
    if (a[i] != 0) return false;
  return true;
}

// a -= b over n limbs; requires a >= b.
void sub_in_place(Limb* a, const Limb* b, std::size_t n) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const U128 d = static_cast<U128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> 127);
  }
}

// a += b over n limbs; the sum must fit.
void add_in_place(Limb* a, const Limb* b, std::size_t n) {
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const U128 s = static_cast<U128>(a[i]) + b[i] + carry;
    a[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
}

void shr(Limb* a, std::size_t n, std::size_t bits) {
  const std::size_t ls = std::min(bits / 64, n);
  const unsigned bs = bits % 64;
  if (ls != 0) {
    std::copy(a + ls, a + n, a);
    std::fill(a + n - ls, a + n, Limb{0});
  }
  if (bs == 0) return;
  for (std::size_t i = 0; i + 1 < n; ++i)
    a[i] = (a[i] >> bs) | (a[i + 1] << (64 - bs));
  a[n - 1] >>= bs;
}

// Bits shifted past limb n-1 are dropped; callers guarantee they are zero.
void shl(Limb* a, std::size_t n, std::size_t bits) {
  const std::size_t ls = std::min(bits / 64, n);
  const unsigned bs = bits % 64;
  if (ls != 0) {
    std::copy_backward(a, a + n - ls, a + n);
    std::fill(a, a + ls, Limb{0});
  }
  if (bs == 0) return;
  for (std::size_t i = n; i-- > 1;)
    a[i] = (a[i] << bs) | (a[i - 1] >> (64 - bs));
  a[0] <<= bs;
}

// Shifts out a's trailing zero bits in one batch; returns how many, or kZero
// (leaving a untouched) when a == 0.
std::size_t strip_twos(Limb* a, std::size_t n) {
  std::size_t i = 0;
  while (i < n && a[i] == 0) ++i;
  if (i == n) return kZero;
  const std::size_t s = 64 * i + static_cast<std::size_t>(std::countr_zero(a[i]));
  if (s != 0) shr(a, n, s);
  return s;
}

// -m^{-1} mod 2^64 for odd m (Newton: each step doubles the correct bits).
Limb neg_inv64(Limb m0) {
  Limb inv = m0;  // correct to 3 bits for odd m0
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  return ~inv + 1;
}

// x <- x / 2^twos mod m for x < m, m odd, k limbs, x given k+1 limbs with
// x[k] == 0. Montgomery-style: up to 64 bits per step, each adding the
// multiple q·m (q < 2^b) of m that clears x's low b bits; x + q·m < 2^b·m,
// so x stays below m without a final subtraction.
void div_pow2_mod(Limb* x, const Limb* m, std::size_t k, std::size_t twos) {
  const Limb minv = neg_inv64(m[0]);
  while (twos != 0) {
    const unsigned b = static_cast<unsigned>(std::min<std::size_t>(twos, 64));
    Limb q = x[0] * minv;
    if (b < 64) q &= (Limb{1} << b) - 1;
    Limb carry = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const U128 t = static_cast<U128>(q) * m[i] + x[i] + carry;
      x[i] = static_cast<Limb>(t);
      carry = static_cast<Limb>(t >> 64);
    }
    x[k] += carry;
    shr(x, k + 1, b);
    twos -= b;
  }
}

}  // namespace

std::optional<Nat> invmod(const Nat& a, const Nat& m) {
  if (m.is_even() || m.is_one())
    throw std::invalid_argument("invmod: modulus must be odd and > 1");
  const std::size_t k = m.limb_count();
  const std::size_t w = std::max(a.limb_count(), k);
  if (w > kMaxLimbs)
    throw std::length_error("invmod: operand wider than " +
                            std::to_string(64 * kMaxLimbs) + " bits");
  // Kaliski's almost-inverse with batched shifts. The pairs (u, s) and
  // (v, r) start at (m, 1) and (a, 0) and keep m = u·s + v·r (so r, s stay
  // <= 2m: k+1 limbs), a·s ≡ v·2^twos and a·r ≡ −u·2^twos (mod m). Each
  // step subtracts the smaller number from the larger, adds the larger's
  // coefficient into the smaller's and moves the larger's twos into its
  // own coefficient. When v reaches 0, u = gcd(a, m) and, if that is 1,
  // a^{-1} = −r·2^{−twos}.
  const std::size_t rs = k + 1;
  Buf ub, vb, rb, sb;
  Limb* u = ub.data();
  Limb* v = vb.data();
  Limb* r = rb.data();
  Limb* s = sb.data();
  m.to_limbs(u, w);
  a.to_limbs(v, w);
  std::fill(r, r + rs, Limb{0});
  std::fill(s, s + rs, Limb{0});
  s[0] = 1;
  std::size_t twos = strip_twos(v, w);
  if (twos == kZero) return std::nullopt;  // a ≡ 0: gcd is m > 1
  std::size_t n = w;
  // Returns true once `big` (the v side, on a tie) reached zero.
  const auto step = [&](Limb* big, Limb* big_coef, const Limb* small,
                        Limb* small_coef) {
    sub_in_place(big, small, n);
    add_in_place(small_coef, big_coef, rs);
    const std::size_t t = strip_twos(big, n);
    const std::size_t shift = t == kZero ? 1 : t;
    shl(big_coef, rs, shift);
    twos += shift;
    return t == kZero;
  };
  for (;;) {
    while (u[n - 1] == 0 && v[n - 1] == 0) --n;
    if (cmp(u, v, n) > 0 ? step(u, s, v, r) : step(v, r, u, s)) break;
  }
  if (!is_one(u, n)) return std::nullopt;
  // r in (0, 2m]: reduce, negate, then divide out 2^twos.
  Buf mb, xb;
  m.to_limbs(mb.data(), rs);
  while (cmp(r, mb.data(), rs) >= 0) sub_in_place(r, mb.data(), rs);
  m.to_limbs(xb.data(), rs);
  sub_in_place(xb.data(), r, rs);  // r != 0: a·r ≡ −2^twos is a unit
  div_pow2_mod(xb.data(), mb.data(), k, twos);
  return Nat::from_limbs({xb.data(), k});
}

}  // namespace ppgr::mpz
