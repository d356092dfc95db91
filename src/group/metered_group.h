// Metrics-emitting decorator over any Group.
//
// Every interface-level call is reported to the runtime metrics funnel
// (runtime::count_op) and then forwarded to the wrapped group, so the
// group_* counters are the calls the protocol actually executed — one
// count per call, whatever the call costs inside (a dual_exp is one
// kGroupDualExp, not the ladder's multiplications). Counting at the
// *interface* — not inside the concrete groups — is deliberate: comb-table
// and ladder internals (SchnorrGroup::exp_g, AcceleratedGroup's tables,
// dual_exp) stay invisible, so the counts are the same on every group
// family and benchcore::model_he_ops can state them in closed form.
//
// With no metrics sink installed on the calling thread, each report is a
// thread-local load plus an untaken branch.
#pragma once

#include "group/group.h"
#include "runtime/metrics.h"

namespace ppgr::group {

class MeteredGroup final : public Group {
 public:
  /// Does not own `inner`; it must outlive this decorator.
  explicit MeteredGroup(const Group& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override {
    return inner_.name() + "+metered";
  }
  [[nodiscard]] const Nat& order() const override { return inner_.order(); }
  [[nodiscard]] std::size_t field_bits() const override {
    return inner_.field_bits();
  }
  [[nodiscard]] Elem generator() const override { return inner_.generator(); }
  [[nodiscard]] Elem identity() const override { return inner_.identity(); }
  [[nodiscard]] Elem mul(const Elem& x, const Elem& y) const override {
    runtime::count_op(runtime::CryptoOp::kGroupMul);
    return inner_.mul(x, y);
  }
  [[nodiscard]] Elem exp(const Elem& base, const Nat& scalar) const override {
    runtime::count_op(runtime::CryptoOp::kGroupExp);
    return inner_.exp(base, scalar);
  }
  [[nodiscard]] Elem exp_g(const Nat& scalar) const override {
    runtime::count_op(runtime::CryptoOp::kGroupExpG);
    return inner_.exp_g(scalar);
  }
  [[nodiscard]] Elem dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                              const Nat& ey) const override {
    runtime::count_op(runtime::CryptoOp::kGroupDualExp);
    return inner_.dual_exp(x, ex, y, ey);
  }
  [[nodiscard]] Elem inv(const Elem& x) const override {
    runtime::count_op(runtime::CryptoOp::kGroupInv);
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
    runtime::count_op(runtime::CryptoOp::kGroupSerialize);
    return inner_.serialize(x);
  }
  [[nodiscard]] std::vector<std::uint8_t> serialize_many(
      std::span<const Elem> xs) const override {
    // Still xs.size() logical serializations, however the inner group
    // batches the work (the model prices encodings, not inversions).
    runtime::count_op(runtime::CryptoOp::kGroupSerialize, xs.size());
    return inner_.serialize_many(xs);
  }
  [[nodiscard]] Elem deserialize(
      std::span<const std::uint8_t> bytes) const override {
    runtime::count_op(runtime::CryptoOp::kGroupDeserialize);
    return inner_.deserialize(bytes);
  }
  [[nodiscard]] std::size_t element_bytes() const override {
    return inner_.element_bytes();
  }

 private:
  const Group& inner_;
};

}  // namespace ppgr::group
