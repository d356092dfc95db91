// Metrics-emitting decorator over any Group.
//
// Every interface-level call is reported to the runtime metrics funnel
// (runtime::count_op) and then forwarded to the wrapped group, so the
// group_* counters are the calls the protocol actually executed — one
// count per call, whatever the call costs inside (a dual_exp is one
// kGroupDualExp, not the ladder's multiplications), and one per element for
// the batch forms (an exp_many over n bases is n kGroupExp and an inv_many
// over n elements n kGroupInv, however the inner group batches them). An
// exp_fixed_many over n scalars (the y^r of ElGamal encryptions, through
// the run's joint-key comb) is n kGroupExp plus n kAccelFixedBaseExp, which
// marks how many of the exps took the comb — one of each for an exp_fixed,
// Group's wrapper over a batch of one — and an exp_g_many n kGroupExpG.
// Counting at the *interface* — not inside the concrete groups — is
// deliberate: comb-table and ladder internals (the combs' products,
// dual_exp, Montgomery's trick) stay invisible, and so does the fallback
// to exp of an inner group that runs no comb, so the counts are the same
// on every group family and benchcore::model_he_ops can state them in
// closed form. Building a comb table over this decorator counts its
// products as kGroupMul; packing it counts nothing.
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
  void exp_fixed_many(const FixedBaseTable& table,
                      std::span<const Nat> scalars,
                      std::span<Elem> out) const override {
    runtime::count_op(runtime::CryptoOp::kGroupExp, out.size());
    runtime::count_op(runtime::CryptoOp::kAccelFixedBaseExp, out.size());
    inner_.exp_fixed_many(table, scalars, out);
  }
  void exp_g_many(std::span<const Nat> scalars,
                  std::span<Elem> out) const override {
    runtime::count_op(runtime::CryptoOp::kGroupExpG, out.size());
    inner_.exp_g_many(scalars, out);
  }
  /// Uncounted: table set-up, not a protocol operation.
  [[nodiscard]] std::vector<mpz::Limb> pack_table(
      std::span<const Elem> entries) const override {
    return inner_.pack_table(entries);
  }
  [[nodiscard]] Elem dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                              const Nat& ey) const override {
    runtime::count_op(runtime::CryptoOp::kGroupDualExp);
    return inner_.dual_exp(x, ex, y, ey);
  }
  void exp_many(std::span<const Elem> bases, std::span<const Nat> scalars,
                std::span<Elem> out) const override {
    runtime::count_op(runtime::CryptoOp::kGroupExp, out.size());
    inner_.exp_many(bases, scalars, out);
  }
  void dual_exp_many(std::span<const Elem> xs, std::span<const Nat> exs,
                     std::span<const Elem> ys, std::span<const Nat> eys,
                     std::span<Elem> out) const override {
    runtime::count_op(runtime::CryptoOp::kGroupDualExp, out.size());
    inner_.dual_exp_many(xs, exs, ys, eys, out);
  }
  [[nodiscard]] Elem inv(const Elem& x) const override {
    runtime::count_op(runtime::CryptoOp::kGroupInv);
    return inner_.inv(x);
  }
  /// out.size() kGroupInv, however the inner group batches them.
  void inv_many(std::span<const Elem> xs,
                std::span<Elem> out) const override {
    runtime::count_op(runtime::CryptoOp::kGroupInv, out.size());
    inner_.inv_many(xs, out);
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
  void serialize_into(std::span<const Elem* const> xs,
                      std::span<std::uint8_t> out) const override {
    // Still xs.size() logical serializations, however the inner group
    // batches the work (the model prices encodings, not inversions).
    runtime::count_op(runtime::CryptoOp::kGroupSerialize, xs.size());
    inner_.serialize_into(xs, out);
  }
  [[nodiscard]] Elem deserialize(
      std::span<const std::uint8_t> bytes) const override {
    runtime::count_op(runtime::CryptoOp::kGroupDeserialize);
    return inner_.deserialize(bytes);
  }
  void deserialize_into(std::span<const std::uint8_t> bytes,
                        std::span<Elem* const> out) const override {
    runtime::count_op(runtime::CryptoOp::kGroupDeserialize, out.size());
    inner_.deserialize_into(bytes, out);
  }
  [[nodiscard]] std::size_t element_bytes() const override {
    return inner_.element_bytes();
  }

 private:
  const Group& inner_;
};

}  // namespace ppgr::group
