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
  const std::size_t windows = (max_scalar_bits + w - 1) / w;
  table_.resize(windows * digits);
  Elem window_base = base;  // g^(2^(wk))
  for (std::size_t k = 0; k < windows; ++k) {
    Elem* row = table_.data() + k * digits;
    row[0] = g.identity();
    row[1] = window_base;
    for (std::size_t d = 2; d < digits; ++d)
      row[d] = g.mul(row[d - 1], window_base);
    // Advance to g^(2^(w(k+1))) = (g^(2^(wk)))^(2^w).
    window_base = g.mul(row[digits - 1], window_base);
  }
  g.normalize_many(table_);
}

Elem FixedBaseTable::exp(const Group& g, const Nat& scalar) const {
  const std::size_t w = window_bits_;
  const std::size_t nbits = scalar.bit_length();
  if (nbits > windows() * w) return g.exp(base_, scalar);  // too wide
  Elem acc = g.identity();
  const std::size_t windows = (nbits + w - 1) / w;
  for (std::size_t k = 0; k < windows; ++k) {
    std::size_t digit = 0;
    for (std::size_t b = 0; b < w; ++b) {
      if (scalar.bit(k * w + b)) digit |= (std::size_t{1} << b);
    }
    if (digit != 0) acc = g.mul(acc, table_[(k << w) + digit]);
  }
  return acc;
}

}  // namespace ppgr::group
