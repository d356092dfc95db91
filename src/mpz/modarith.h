// Modular inverse over Nat: a binary kernel (subtract/shift loops on stack
// limb buffers, with no division and no allocation). Operands may be at most
// 4096 bits wide (std::length_error otherwise).
#pragma once

#include <optional>

#include "mpz/nat.h"

namespace ppgr::mpz {

/// a^{-1} mod m for gcd(a, m) == 1; std::nullopt otherwise. m must be odd
/// and > 1 (std::invalid_argument otherwise); a may be >= m. Binary
/// almost-inverse (Kaliski), then a Montgomery-style division by 2^k.
[[nodiscard]] std::optional<Nat> invmod(const Nat& a, const Nat& m);

}  // namespace ppgr::mpz
