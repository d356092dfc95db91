// A cheap-but-consistent group for cost accounting.
//
// The benchmark harness needs *exact per-protocol operation counts* at
// parameter scales (n up to 70, 1024-3072-bit DL groups) where executing the
// real exponentiations would take hours on one core. Every phase-2 operation
// count in the framework is data-independent, so the counts obtained by
// running the protocol over ANY consistent group are the counts of the real
// run. MockGroup is that group: arithmetic in Z_p* for the Mersenne prime
// p = 2^61 - 1 (single-word Montgomery-free math), declared order p-1 so
// protocol-level scalar arithmetic mod q stays consistent with the group
// (ord(g) divides p-1). It is NOT secure and must never leave bench code.
//
// element_bytes() is configurable so recorded communication traces carry the
// byte sizes of the group being modeled (e.g. a 1024-bit DL element).
#pragma once

#include "group/group.h"

namespace ppgr::group {

class MockGroup final : public Group {
 public:
  /// `modeled_elem_bytes`/`modeled_field_bits` report as the group being
  /// priced (for trace byte accounting); internal math is 61-bit.
  MockGroup(std::string name, std::size_t modeled_elem_bytes,
            std::size_t modeled_field_bits);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] const Nat& order() const override { return order_; }
  [[nodiscard]] std::size_t field_bits() const override { return field_bits_; }

  [[nodiscard]] Elem generator() const override;
  [[nodiscard]] Elem identity() const override;
  [[nodiscard]] Elem mul(const Elem& x, const Elem& y) const override;
  [[nodiscard]] Elem exp(const Elem& base, const Nat& scalar) const override;
  [[nodiscard]] Elem dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                              const Nat& ey) const override;
  [[nodiscard]] Elem inv(const Elem& x) const override;
  [[nodiscard]] bool eq(const Elem& x, const Elem& y) const override;
  [[nodiscard]] bool is_identity(const Elem& x) const override;

  [[nodiscard]] std::vector<std::uint8_t> serialize(const Elem& x) const override;
  [[nodiscard]] Elem deserialize(std::span<const std::uint8_t> bytes) const override;
  [[nodiscard]] std::size_t element_bytes() const override { return elem_bytes_; }

 private:
  std::string name_;
  std::size_t elem_bytes_;
  std::size_t field_bits_;
  Nat order_;  // p - 1 = 2^61 - 2
};

}  // namespace ppgr::group
