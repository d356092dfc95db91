// Fixed-base exponentiation via a windowed comb table.
//
// For a fixed base g and window width w, precompute T[k][d] = g^(d * 2^(wk))
// for every w-bit digit position k of the scalar; then g^s = Π_k
// T[k][digit_k(s)] — one group multiplication per nonzero digit and zero
// squarings. Two bases get a table: each group's generator (its exp_g, built
// once per group instance; every ElGamal encryption computes g^r) and the
// run's joint ElGamal key y, which Group::exp_fixed raises for every
// encryption and every compare-circuit re-randomization.
//
// A table is its group's packed limbs and nothing else: it builds the
// entries through the group's mul, hands them to Group::pack_table and
// keeps only the result, packed(). Each group family reads that layout with
// one scalar comb and one 8-lane comb (DESIGN.md Sec. 5e): SchnorrGroup
// packs each residue on its modulus's limbs, EcGroup each affine x, y on
// four limbs (all zeros for the identity). The scalar combs skip zero
// digits. The lane combs of the batch form (exp_fixed_many on AVX-512 IFMA
// CPUs) multiply on every window up to the batch's widest scalar instead:
// each lane gathers its own digit's entry, and on SchnorrGroup a zero digit
// gathers entry 0, the group's one, so all eight lanes run the same
// products; EcGroup masks zero-digit lanes off. A group that packs nothing
// (MockGroup) answers exp_fixed with its exp.
//
// Memory/speed trade-off: a table holds ceil(bits/w) windows of 2^w - 1
// non-identity elements and answers an exp in at most ceil(bits/w)
// multiplications. One more bit of window roughly doubles the table and
// cuts the products by a factor w/(w+1): on a 256-bit scalar, w=4 is 960
// elements and <=64 muls; w=5 is 1612 elements and <=52 muls. Both protocol
// tables use the default w=4 over the group order's bit length.
#pragma once

#include <span>
#include <vector>

#include "group/group.h"

namespace ppgr::group {

class FixedBaseTable {
 public:
  /// Precomputes for scalars up to `max_scalar_bits` bits with `window_bits`
  /// wide digits (2..8; throws std::invalid_argument outside that range).
  FixedBaseTable(const Group& g, const Elem& base, std::size_t max_scalar_bits,
                 std::size_t window_bits = 4);
  /// The protocol's table: scalars below the group order, w = 4.
  FixedBaseTable(const Group& g, const Elem& base)
      : FixedBaseTable(g, base, g.order().bit_length()) {}

  [[nodiscard]] std::size_t windows() const { return windows_; }
  [[nodiscard]] std::size_t window_bits() const { return window_bits_; }
  /// The windows a comb over `scalar` reads: ceil(bits / w).
  [[nodiscard]] std::size_t windows_of(const Nat& scalar) const {
    return (scalar.bit_length() + window_bits_ - 1) / window_bits_;
  }
  /// True iff the table covers every digit of `scalar`; wider scalars take
  /// the group's exp.
  [[nodiscard]] bool fits(const Nat& scalar) const {
    return windows_of(scalar) <= windows();
  }
  /// The w-bit digit of `scalar` in window k.
  [[nodiscard]] unsigned digit(const Nat& scalar, std::size_t k) const;
  /// Entries in the table: windows() * 2^w.
  [[nodiscard]] std::size_t entries() const {
    return windows_ << window_bits_;
  }
  /// Group::pack_table of the entries T[k][d] (T[k][0] the identity), at
  /// k * 2^w + d in the group's layout; empty when the group packs none.
  [[nodiscard]] std::span<const mpz::Limb> packed() const { return packed_; }

  /// The fixed base the table was built for.
  [[nodiscard]] const Elem& base() const { return base_; }

 private:
  Elem base_;
  std::size_t window_bits_;
  std::size_t windows_;
  std::vector<mpz::Limb> packed_;
};

}  // namespace ppgr::group
