// A cheap-but-consistent group for tests.
//
// Arithmetic in Z_p* for the Mersenne prime p = 2^61 - 1 (single-word
// Montgomery-free math), declared order p-1 so protocol-level scalar
// arithmetic mod q stays consistent with the group (ord(g) divides p-1).
// The multi-exp, batch-inverse and phase-2 oracle tests use it as a third
// group family next to the Schnorr and EC groups, and the benchmark model
// hands it to the SS baseline, which needs no DDH group but a configured
// one. It runs no ladder or comb of its own: dual_exp multiplies two
// exps, and having no packed comb table it answers exp_fixed with Group's
// default, an exp of the table's base. It is NOT secure and must never
// leave bench and test code.
#pragma once

#include "group/group.h"

namespace ppgr::group {

class MockGroup final : public Group {
 public:
  explicit MockGroup(std::string name);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] const Nat& order() const override { return order_; }
  [[nodiscard]] std::size_t field_bits() const override { return 61; }

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
  [[nodiscard]] std::size_t element_bytes() const override { return 8; }

 private:
  std::string name_;
  Nat order_;  // p - 1 = 2^61 - 2
};

}  // namespace ppgr::group
