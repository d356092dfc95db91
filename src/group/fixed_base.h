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
// Memory/speed trade-off: a table holds ceil(bits/w) windows of 2^w - 1
// non-identity elements and answers an exp in at most ceil(bits/w)
// multiplications. One more bit of window roughly doubles the table and
// cuts the products by a factor w/(w+1): on a 256-bit scalar, w=4 is 960
// elements and <=64 muls; w=5 is 1612 elements and <=52 muls. Both protocol
// tables use the default w=4 over the group order's bit length.
#pragma once

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

  /// base^scalar using only multiplications. Falls back to the group's
  /// generic exp for scalars wider than the table.
  [[nodiscard]] Elem exp(const Group& g, const Nat& scalar) const;

  [[nodiscard]] std::size_t windows() const {
    return table_.size() >> window_bits_;
  }
  [[nodiscard]] std::size_t window_bits() const { return window_bits_; }

  /// The fixed base the table was built for.
  [[nodiscard]] const Elem& base() const { return base_; }

 private:
  Elem base_;
  std::size_t window_bits_;
  std::vector<Elem> table_;  // [window * 2^w + digit]
};

}  // namespace ppgr::group
