#include "mpz/prime.h"

#include <array>
#include <stdexcept>

#include "mpz/mont.h"

namespace ppgr::mpz {

namespace {

constexpr std::array<Limb, 25> kSmallPrimes = {
    2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41,
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97};

// One Miller–Rabin round with the given base over a shared Montgomery ctx.
// n - 1 = d * 2^s, d odd.
bool mr_round(const MontCtx& ctx, const Nat& n, const Nat& d, std::size_t s,
              const Nat& base) {
  const Nat n_minus_1 = Nat::sub(n, Nat{1});
  Nat x = ctx.exp(ctx.to_mont(base % n), d);
  Nat x_std = ctx.from_mont(x);
  if (x_std.is_one() || x_std == n_minus_1) return true;
  for (std::size_t i = 1; i < s; ++i) {
    x = ctx.sqr(x);
    x_std = ctx.from_mont(x);
    if (x_std == n_minus_1) return true;
    if (x_std.is_one()) return false;  // nontrivial sqrt of 1
  }
  return false;
}

}  // namespace

bool is_probable_prime(const Nat& n, Rng& rng, int rounds) {
  if (n < Nat{2}) return false;
  for (const Limb p : kSmallPrimes) {
    if (n == Nat{p}) return true;
    if ((n % Nat{p}).is_zero()) return false;
  }
  // n is odd and > 97 here.
  Nat d = Nat::sub(n, Nat{1});
  std::size_t s = 0;
  while (d.is_even()) {
    d = d.shr(1);
    ++s;
  }
  const MontCtx ctx{n};
  // Fixed small bases first (cheap, removes most composites deterministically).
  for (const Limb b : {Limb{2}, Limb{3}, Limb{5}, Limb{7}, Limb{11}, Limb{13},
                       Limb{17}, Limb{19}, Limb{23}, Limb{29}, Limb{31},
                       Limb{37}}) {
    if (!mr_round(ctx, n, d, s, Nat{b})) return false;
  }
  for (int i = 0; i < rounds; ++i) {
    const Nat base = Nat::add(rng.below(Nat::sub(n, Nat{3})), Nat{2});
    if (!mr_round(ctx, n, d, s, base)) return false;
  }
  return true;
}

Nat random_prime(std::size_t bits, Rng& rng) {
  if (bits < 2) throw std::invalid_argument("random_prime: need >= 2 bits");
  for (;;) {
    Nat candidate = rng.bits(bits);
    candidate.set_bit(bits - 1, true);  // exact width
    candidate.set_bit(0, true);         // odd
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace ppgr::mpz
