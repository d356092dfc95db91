// Precompute-accelerated decorator over any Group.
//
// Routes fixed-base exponentiations through comb tables (group/fixed_base.h)
// when one is attached —
//
//   exp_g(s)      -> generator table (every encryption / re-randomization)
//   exp(base, s)  -> joint-key table when `base` equals the table's base
//                    (the y^r half of every encryption and
//                    re-randomization); each hit bumps kAccelFixedBaseExp
//
// and forwards everything else, dual_exp included, so a concrete group's
// native ladders stay reachable through the decorator.
//
// Tables are attached after construction because the joint ElGamal key only
// exists once phase-2 keygen has run; run_framework installs the key table
// between two fork-join barriers, so worker threads observe the write
// through the pool's synchronization (no atomics needed — same discipline
// as every other orchestrator-owned structure).
//
// Mathematically the decorator is invisible: a comb table computes exactly
// base^scalar, so wrapping a group in AcceleratedGroup never changes any
// protocol output — only where the multiplications come from. Layering
// under MeteredGroup keeps the interface-level op counts unchanged too
// (the comb's internal muls are deliberately uncounted, matching how
// SchnorrGroup::exp_g's own table works).
#pragma once

#include <memory>
#include <utility>

#include "group/fixed_base.h"
#include "group/group.h"
#include "runtime/metrics.h"

namespace ppgr::group {

class AcceleratedGroup final : public Group {
 public:
  /// Does not own `inner`; it must outlive this decorator.
  explicit AcceleratedGroup(const Group& inner) : inner_(inner) {}

  /// Generator table for exp_g. Null detaches.
  void set_generator_table(std::shared_ptr<const FixedBaseTable> t) {
    gen_table_ = std::move(t);
  }
  /// Extra fixed-base table (the joint public key); exp() consults it when
  /// the base compares equal to table->base(). Null detaches.
  void set_base_table(std::shared_ptr<const FixedBaseTable> t) {
    base_table_ = std::move(t);
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const Nat& order() const override { return inner_.order(); }
  [[nodiscard]] std::size_t field_bits() const override {
    return inner_.field_bits();
  }
  [[nodiscard]] Elem generator() const override { return inner_.generator(); }
  [[nodiscard]] Elem identity() const override { return inner_.identity(); }
  [[nodiscard]] Elem mul(const Elem& x, const Elem& y) const override {
    return inner_.mul(x, y);
  }
  [[nodiscard]] Elem exp(const Elem& base, const Nat& scalar) const override {
    if (base_table_ != nullptr && inner_.eq(base, base_table_->base())) {
      runtime::count_op(runtime::CryptoOp::kAccelFixedBaseExp);
      return base_table_->exp(inner_, scalar);
    }
    return inner_.exp(base, scalar);
  }
  [[nodiscard]] Elem dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                              const Nat& ey) const override {
    return inner_.dual_exp(x, ex, y, ey);
  }
  [[nodiscard]] Elem exp_g(const Nat& scalar) const override {
    if (gen_table_ != nullptr) return gen_table_->exp(inner_, scalar);
    return inner_.exp_g(scalar);
  }
  [[nodiscard]] Elem inv(const Elem& x) const override {
    return inner_.inv(x);
  }
  [[nodiscard]] bool eq(const Elem& x, const Elem& y) const override {
    return inner_.eq(x, y);
  }
  [[nodiscard]] bool is_identity(const Elem& x) const override {
    return inner_.is_identity(x);
  }
  [[nodiscard]] std::vector<std::uint8_t> serialize(
      const Elem& x) const override {
    return inner_.serialize(x);
  }
  [[nodiscard]] std::vector<std::uint8_t> serialize_many(
      std::span<const Elem> xs) const override {
    return inner_.serialize_many(xs);
  }
  [[nodiscard]] Elem deserialize(
      std::span<const std::uint8_t> bytes) const override {
    return inner_.deserialize(bytes);
  }
  [[nodiscard]] std::size_t element_bytes() const override {
    return inner_.element_bytes();
  }

 private:
  const Group& inner_;
  std::shared_ptr<const FixedBaseTable> gen_table_;
  std::shared_ptr<const FixedBaseTable> base_table_;
};

}  // namespace ppgr::group
