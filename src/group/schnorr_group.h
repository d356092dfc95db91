// The "DL" instantiation of the paper's DDH group (Sec. IV-B), as the
// quotient Z_p*/{±1} for a safe prime p = 2q + 1 (the signed quadratic
// residues of Hofheinz-Kiltz, Eurocrypt 2009, over a prime modulus). Since
// p = 3 mod 4, -1 is a non-residue, so each class {x, -x} holds exactly one
// quadratic residue: the quotient has prime order q and is isomorphic to the
// paper's QR subgroup, with the same DDH problem. The generator is the class
// of 4 = 2^2. Arithmetic runs on any representative; eq, is_identity and
// serialize work on classes, and the wire carries the canonical
// |x| = min(x, p - x) in [1, q], so a decode is a range check.
//
// The production parameter sets (1024/2048/3072 bits, matching the security
// levels compared in Fig. 3(a)) are fixed safe primes generated once with a
// verified generator and re-checked by the test suite using the library's own
// Miller-Rabin implementation.
#pragma once

#include <mutex>
#include <memory>

#include "group/fixed_base.h"
#include "group/group.h"
#include "mpz/mont.h"

namespace ppgr::group {

class SchnorrGroup final : public Group {
 public:
  /// p must be a safe prime (p = 2q+1, both prime). Verified lazily by the
  /// test suite, not on construction (3072-bit primality proofs are slow);
  /// the constructor checks only p >= 7 and p = 3 mod 4.
  explicit SchnorrGroup(std::string name, Nat safe_prime);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] const Nat& order() const override { return q_; }
  [[nodiscard]] std::size_t field_bits() const override {
    return mont_.modulus().bit_length();
  }
  [[nodiscard]] const Nat& modulus() const { return mont_.modulus(); }

  [[nodiscard]] Elem generator() const override;
  /// The comb over the generator's table (built on first use).
  [[nodiscard]] Elem exp_g(const Nat& scalar) const override;
  void exp_g_many(std::span<const Nat> scalars,
                  std::span<Elem> out) const override;
  /// On AVX-512 IFMA CPUs (4-limb moduli) MontCtx::comb_lanes over the
  /// packed table in the calls lanes::split_lanes cuts, as EcGroup's, else
  /// (and for a call holding a scalar the table does not cover) the scalar
  /// comb; each element is the same residue. The table must be packed by
  /// this group (std::invalid_argument otherwise).
  void exp_fixed_many(const FixedBaseTable& table,
                      std::span<const Nat> scalars,
                      std::span<Elem> out) const override;
  /// Each entry's residue on limbs() limbs.
  [[nodiscard]] std::vector<mpz::Limb> pack_table(
      std::span<const Elem> entries) const override;
  [[nodiscard]] Elem identity() const override;
  [[nodiscard]] Elem mul(const Elem& x, const Elem& y) const override;
  [[nodiscard]] Elem exp(const Elem& base, const Nat& scalar) const override;
  [[nodiscard]] Elem dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                              const Nat& ey) const override;
  void exp_many(std::span<const Elem> bases, std::span<const Nat> scalars,
                std::span<Elem> out) const override;
  void dual_exp_many(std::span<const Elem> xs, std::span<const Nat> exs,
                     std::span<const Elem> ys, std::span<const Nat> eys,
                     std::span<Elem> out) const override;
  [[nodiscard]] Elem inv(const Elem& x) const override;
  void inv_many(std::span<const Elem> xs, std::span<Elem> out) const override;
  [[nodiscard]] bool eq(const Elem& x, const Elem& y) const override;
  [[nodiscard]] bool is_identity(const Elem& x) const override;

  [[nodiscard]] std::vector<std::uint8_t> serialize(const Elem& x) const override;
  /// Each residue leaves Montgomery form through the kernel and |x| is
  /// written big-endian in place: no Nat and no buffer per element.
  void serialize_into(std::span<const Elem* const> xs,
                      std::span<std::uint8_t> out) const override;
  [[nodiscard]] Elem deserialize(std::span<const std::uint8_t> bytes) const override;
  /// The range check 1 <= z <= q and the conversion into Montgomery form,
  /// on limbs.
  void deserialize_into(std::span<const std::uint8_t> bytes,
                        std::span<Elem* const> out) const override;
  [[nodiscard]] std::size_t element_bytes() const override;

 private:
  std::string name_;
  mpz::MontCtx mont_;
  Nat q_;        // (p-1)/2
  Nat gen_;      // 4, in Montgomery form
  Nat neg_one_;  // -1 (p - R), the identity's other Montgomery representative
  [[nodiscard]] const FixedBaseTable& gen_table() const;
  /// The scalar comb on stack residues: one Montgomery product per nonzero
  /// digit, starting from one, with the group's kernel.
  [[nodiscard]] Elem comb(const FixedBaseTable& table, const Nat& scalar) const;

  // Lazily built comb table for the generator; call_once-guarded so
  // concurrent exp_g calls from the parallel engine are race-free.
  mutable std::once_flag gen_table_once_;
  mutable std::unique_ptr<FixedBaseTable> gen_table_;
};

}  // namespace ppgr::group
