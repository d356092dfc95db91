// Arbitrary-precision unsigned integers ("naturals").
//
// This is the foundational substrate of the ppgr library: every group,
// cryptosystem and protocol in the repository is built on top of Nat.
// Limbs are 64-bit, stored little-endian, and always normalized (no leading
// zero limbs; the value zero is the empty limb vector).
//
// Design notes
//  - Value semantics throughout; cheap moves.
//  - Multiplication is schoolbook. The widest products a ranking run forms
//    are the shuffle hop's x·r mod q, 32 and 48 limbs on dl-2048 / dl-3072:
//    one per hop ciphertext, next to that ciphertext's full-width ladders.
//  - Division is Knuth's Algorithm D with 128-bit trial quotients.
//  - Subtraction requires lhs >= rhs (checked); signed arithmetic lives in
//    Int (sint.h).
//  - Limbs live in a small-buffer LimbVec (limb_vec.h): values up to 256
//    bits never touch the allocator, which is what makes the Montgomery
//    hot loops allocation-free for the test groups and P-curves.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpz/limb_vec.h"

namespace ppgr::mpz {

using Limb = std::uint64_t;

class Nat {
 public:
  /// Zero.
  Nat() = default;
  /// From a single machine word.
  Nat(Limb v);  // NOLINT(google-explicit-constructor): deliberate, ergonomic
  /// From raw limbs, little-endian; normalizes.
  static Nat from_limbs(std::span<const Limb> limbs);
  /// Parse a hex string (no 0x prefix required, case-insensitive).
  /// Throws std::invalid_argument on bad input.
  static Nat from_hex(std::string_view hex);
  /// Parse a decimal string. Throws std::invalid_argument on bad input.
  static Nat from_dec(std::string_view dec);
  /// Big-endian byte deserialization.
  static Nat from_bytes_be(std::span<const std::uint8_t> bytes);
  /// 2^k.
  static Nat pow2(std::size_t k);

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_one() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  [[nodiscard]] bool is_even() const { return !is_odd(); }

  /// Number of significant bits; 0 for zero.
  [[nodiscard]] std::size_t bit_length() const;
  /// Value of bit i (i >= bit_length() reads as 0).
  [[nodiscard]] bool bit(std::size_t i) const;
  /// Sets bit i to v, growing as needed.
  void set_bit(std::size_t i, bool v);
  /// Number of limbs (0 for zero).
  [[nodiscard]] std::size_t limb_count() const { return limbs_.size(); }
  /// Limb i (i >= limb_count() reads as 0).
  [[nodiscard]] Limb limb(std::size_t i) const {
    return i < limbs_.size() ? limbs_[i] : 0;
  }
  [[nodiscard]] std::span<const Limb> limbs() const {
    return {limbs_.data(), limbs_.size()};
  }
  /// out[0, k) = the low k limbs, zero-padded above the top limb: the
  /// fixed-width form the raw-limb kernels take.
  void to_limbs(Limb* out, std::size_t k) const {
    const std::size_t n = std::min(limbs_.size(), k);
    std::copy_n(limbs_.data(), n, out);
    std::fill(out + n, out + k, Limb{0});
  }

  /// Truncating conversion to a machine word (low 64 bits).
  [[nodiscard]] Limb to_limb() const { return limbs_.empty() ? 0 : limbs_[0]; }
  /// True iff the value fits in 64 bits.
  [[nodiscard]] bool fits_limb() const { return limbs_.size() <= 1; }

  /// Three-way compare: -1, 0, +1.
  [[nodiscard]] static int cmp(const Nat& a, const Nat& b);

  friend bool operator==(const Nat& a, const Nat& b) { return cmp(a, b) == 0; }
  friend bool operator!=(const Nat& a, const Nat& b) { return cmp(a, b) != 0; }
  friend bool operator<(const Nat& a, const Nat& b) { return cmp(a, b) < 0; }
  friend bool operator<=(const Nat& a, const Nat& b) { return cmp(a, b) <= 0; }
  friend bool operator>(const Nat& a, const Nat& b) { return cmp(a, b) > 0; }
  friend bool operator>=(const Nat& a, const Nat& b) { return cmp(a, b) >= 0; }

  [[nodiscard]] static Nat add(const Nat& a, const Nat& b);
  /// Requires a >= b; throws std::domain_error otherwise.
  [[nodiscard]] static Nat sub(const Nat& a, const Nat& b);
  [[nodiscard]] static Nat mul(const Nat& a, const Nat& b);
  /// Quotient and remainder; throws std::domain_error on division by zero.
  struct DivRem;
  [[nodiscard]] static DivRem divrem(const Nat& a, const Nat& b);

  [[nodiscard]] Nat shl(std::size_t bits) const;
  [[nodiscard]] Nat shr(std::size_t bits) const;

  friend Nat operator+(const Nat& a, const Nat& b) { return add(a, b); }
  friend Nat operator-(const Nat& a, const Nat& b) { return sub(a, b); }
  friend Nat operator*(const Nat& a, const Nat& b) { return mul(a, b); }
  friend Nat operator/(const Nat& a, const Nat& b);
  friend Nat operator%(const Nat& a, const Nat& b);
  friend Nat operator<<(const Nat& a, std::size_t k) { return a.shl(k); }
  friend Nat operator>>(const Nat& a, std::size_t k) { return a.shr(k); }

  Nat& operator+=(const Nat& b) { return *this = add(*this, b); }
  Nat& operator-=(const Nat& b) { return *this = sub(*this, b); }
  Nat& operator*=(const Nat& b) { return *this = mul(*this, b); }
  Nat& operator%=(const Nat& b);

  /// Lowercase hex, no leading zeros ("0" for zero).
  [[nodiscard]] std::string to_hex() const;
  /// Decimal string.
  [[nodiscard]] std::string to_dec() const;
  /// Big-endian bytes, minimal length (empty for zero) unless width is given,
  /// in which case the output is left-padded with zeros to exactly `width`
  /// bytes (throws std::length_error if the value does not fit).
  [[nodiscard]] std::vector<std::uint8_t> to_bytes_be(std::size_t width = 0) const;

 private:
  void normalize();

  LimbVec limbs_;
};

struct Nat::DivRem {
  Nat quot;
  Nat rem;
};

inline Nat operator/(const Nat& a, const Nat& b) { return Nat::divrem(a, b).quot; }
inline Nat operator%(const Nat& a, const Nat& b) { return Nat::divrem(a, b).rem; }
inline Nat& Nat::operator%=(const Nat& b) { return *this = divrem(*this, b).rem; }

/// Big-endian bytes -> k little-endian limbs, zero-extended:
/// Nat::from_bytes_be without the Nat. Requires be.size() <= 8k.
void limbs_from_be(Limb* out, std::size_t k, std::span<const std::uint8_t> be);
/// The low be.size() bytes of the limbs, big-endian: to_bytes_be into a
/// caller's buffer, for values known to fit.
void limbs_to_be(std::span<std::uint8_t> be, const Limb* limbs);

}  // namespace ppgr::mpz
