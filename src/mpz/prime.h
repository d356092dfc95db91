// Primality testing and prime generation.
//
// Used to generate the field moduli of the secret-sharing substrate and the
// dot-product field; the DL groups use fixed safe primes (group/).
#pragma once

#include "mpz/nat.h"
#include "mpz/rng.h"

namespace ppgr::mpz {

/// Miller–Rabin probable-prime test with `rounds` random bases.
/// Deterministically correct for n < 3,317,044,064,679,887,385,961,981 when
/// combined with the fixed small-base pass done internally.
[[nodiscard]] bool is_probable_prime(const Nat& n, Rng& rng, int rounds = 32);

/// Uniform random prime with exactly `bits` bits (top bit set).
[[nodiscard]] Nat random_prime(std::size_t bits, Rng& rng);

}  // namespace ppgr::mpz
