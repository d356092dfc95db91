#include "group/fixed_base.h"

#include <stdexcept>

namespace ppgr::group {

FixedBaseTable::FixedBaseTable(const Group& g, const Elem& base,
                               std::size_t max_scalar_bits,
                               std::size_t window_bits)
    : base_(base), window_bits_(window_bits) {
  if (window_bits < 2 || window_bits > 8)
    throw std::invalid_argument("FixedBaseTable: window_bits must be in [2,8]");
  const std::size_t w = window_bits;
  const std::size_t digits = std::size_t{1} << w;
  windows_ = (max_scalar_bits + w - 1) / w;
  std::vector<Elem> table;  // [window * 2^w + digit]
  table.reserve(entries());  // no reallocation: back() stays valid
  Elem window_base = base;  // g^(2^(wk))
  for (std::size_t k = 0; k < windows_; ++k) {
    table.push_back(g.identity());
    table.push_back(window_base);
    for (std::size_t d = 2; d < digits; ++d)
      table.push_back(g.mul(table.back(), window_base));
    // Advance to g^(2^(w(k+1))) = (g^(2^(wk)))^(2^w).
    window_base = g.mul(table.back(), window_base);
  }
  packed_ = g.pack_table(table);
}

unsigned FixedBaseTable::digit(const Nat& scalar, std::size_t k) const {
  // A digit straddles two limbs when w does not divide 64.
  const std::size_t pos = k * window_bits_, shift = pos % 64;
  unsigned __int128 v = scalar.limb(pos / 64);
  v |= static_cast<unsigned __int128>(scalar.limb(pos / 64 + 1)) << 64;
  return static_cast<unsigned>(v >> shift) &
         ((1u << window_bits_) - 1);
}

}  // namespace ppgr::group
