// Number-theoretic helpers over Nat: gcd, modular inverse, general modular
// exponentiation, Jacobi symbol and modular square roots (Tonelli–Shanks).
//
// gcd, invmod and jacobi are binary kernels: subtract/shift loops on stack
// limb buffers, with no division and no allocation. Their operands may be at
// most 4096 bits wide (std::length_error otherwise).
#pragma once

#include <optional>

#include "mpz/nat.h"

namespace ppgr::mpz {

/// Greatest common divisor (Stein's binary GCD).
[[nodiscard]] Nat gcd(const Nat& a, const Nat& b);

/// a^{-1} mod m for gcd(a, m) == 1; std::nullopt otherwise. m must be odd
/// and > 1 (std::invalid_argument otherwise); a may be >= m. Binary
/// almost-inverse (Kaliski), then a Montgomery-style division by 2^k.
[[nodiscard]] std::optional<Nat> invmod(const Nat& a, const Nat& m);

/// base^e mod m for arbitrary m > 0 (uses Montgomery when m is odd and at
/// most MontCtx::kCiosMaxLimbs limbs).
[[nodiscard]] Nat powmod(const Nat& base, const Nat& e, const Nat& m);

/// Jacobi symbol (a/n) for odd n > 0 and any a >= 0; returns -1, 0 or +1.
/// Binary (Stein-style) reduction with batched halvings.
[[nodiscard]] int jacobi(const Nat& a, const Nat& n);

/// Square root of a modulo an odd prime p, if one exists (Tonelli–Shanks).
[[nodiscard]] std::optional<Nat> sqrtmod(const Nat& a, const Nat& p);

}  // namespace ppgr::mpz
