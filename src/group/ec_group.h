// The "ECC" instantiation of the paper's DDH group: a prime-order
// short-Weierstrass elliptic curve y^2 = x^3 + ax + b over Z_p, written
// multiplicatively to match the Group interface (mul = point addition,
// exp = scalar multiplication).
//
// We ship the NIST P-192 / P-224 / P-256 curves (all with cofactor 1 and
// a = -3), the standardized equivalents of the "160/224/256-bit ECC group"
// security levels compared in the paper's Fig. 3(a). Internally points are
// kept in Jacobian coordinates (X, Y, Z) with field elements in Montgomery
// form; serialization is the affine uncompressed SEC1 format 0x04 || x || y
// (0x00 for the identity).
//
// Every point formula runs on stack limb arrays (at most 4 limbs: fields up
// to 256 bits), with products through the field's MontCtx kernel
// (MontCtx::mul_limbs) and additions mod p in place; an Elem is loaded at
// the entry of each call and boxed at its exit. Doubling uses the a = -3
// form on the NIST curves and the general-a form otherwise. The batch forms
// (exp_many / dual_exp_many, and the combs' exp_fixed_many / exp_g_many)
// run 8 ladders or combs per AVX-512 IFMA vector on CPUs that have it, and
// the scalar ladder or comb otherwise; both return the same Elem (DESIGN.md
// Sec. 5e).
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>

#include "group/fixed_base.h"
#include "group/group.h"
#include "mpz/fp.h"

namespace ppgr::group {

/// Short-Weierstrass curve parameters (affine, standard representation).
struct CurveParams {
  std::string name;
  Nat p;      // field prime
  Nat a;      // usually p - 3
  Nat b;
  Nat gx;     // base point
  Nat gy;
  Nat order;  // prime order n (cofactor must be 1)
};

class EcGroup final : public Group {
 public:
  /// Throws std::invalid_argument when the field is wider than 256 bits, the
  /// base point is off the curve, or b = 0 (such a curve has the point (0, 0)
  /// of order 2, so it is not of prime order).
  explicit EcGroup(CurveParams params);

  [[nodiscard]] std::string name() const override { return params_.name; }
  [[nodiscard]] const Nat& order() const override { return params_.order; }
  [[nodiscard]] std::size_t field_bits() const override {
    return field_.bits();
  }
  [[nodiscard]] const mpz::FpCtx& field() const { return field_; }

  [[nodiscard]] Elem generator() const override { return gen_; }
  /// The comb over the generator's table (built on first use).
  [[nodiscard]] Elem exp_g(const Nat& scalar) const override;
  void exp_g_many(std::span<const Nat> scalars,
                  std::span<Elem> out) const override;
  /// The scalar comb on stack points, one mixed addition per nonzero digit
  /// starting from the identity, or on an IFMA CPU lane-wise combs in the
  /// calls lanes::split_lanes cuts (a last batch padded with zero scalars,
  /// a remainder below lanes::kPadFrom on the scalar comb); each element is
  /// the scalar comb's Jacobian triple. A call holding a scalar the table
  /// does not cover, or in which a lane adds a point to itself, reruns on
  /// the scalar comb. The table must be packed by this group
  /// (std::invalid_argument otherwise).
  void exp_fixed_many(const FixedBaseTable& table,
                      std::span<const Nat> scalars,
                      std::span<Elem> out) const override;
  /// Each entry's affine x and y, Montgomery form, on four limbs each (all
  /// zeros for the identity), after one batched field inversion of every
  /// entry's Z.
  [[nodiscard]] std::vector<mpz::Limb> pack_table(
      std::span<const Elem> entries) const override;
  [[nodiscard]] Elem identity() const override { return Elem{.infinity = true}; }
  [[nodiscard]] Elem mul(const Elem& x, const Elem& y) const override;
  [[nodiscard]] Elem exp(const Elem& base, const Nat& scalar) const override;
  /// x^ex · y^ey as one Straus ladder on stack points: a 4-bit-window
  /// table per base and one shared run of doublings.
  [[nodiscard]] Elem dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                              const Nat& ey) const override;
  /// Batch forms, element-identical to exp / dual_exp (the same Jacobian
  /// triple, not only the same point). On an IFMA CPU they run lane-wise
  /// ladders in the calls lanes::split_lanes cuts (a last batch padded with
  /// identity bases, a remainder below lanes::kPadFrom on the scalar
  /// ladder). A call in which a lane adds a point to itself or doubles a
  /// point of order 2 reruns all its elements on the scalar ladder.
  void exp_many(std::span<const Elem> bases, std::span<const Nat> scalars,
                std::span<Elem> out) const override;
  void dual_exp_many(std::span<const Elem> xs, std::span<const Nat> exs,
                     std::span<const Elem> ys, std::span<const Nat> eys,
                     std::span<Elem> out) const override;
  /// Ladders the batch forms run per step: 8 on the IFMA path, 1 on the
  /// scalar ladder. The CPU alone decides (every shipped field qualifies).
  [[nodiscard]] std::size_t batch_lanes() const {
    return lanes_.has_value() ? 8 : 1;
  }
  [[nodiscard]] Elem inv(const Elem& x) const override;
  [[nodiscard]] bool eq(const Elem& x, const Elem& y) const override;
  [[nodiscard]] bool is_identity(const Elem& x) const override {
    return x.infinity;
  }

  [[nodiscard]] std::vector<std::uint8_t> serialize(const Elem& x) const override;
  /// Batched serialization: normalizes every non-identity point to affine
  /// with ONE field inversion (FpCtx::inv_many, Montgomery's trick) instead
  /// of one per point. Byte-identical to the per-element form.
  void serialize_into(std::span<const Elem* const> xs,
                      std::span<std::uint8_t> out) const override;
  /// Accepts only canonical encodings (std::invalid_argument otherwise):
  /// all zeros for the identity, else 0x04 || x || y with x, y < p on the
  /// curve, so every accepted encoding re-serializes to itself.
  [[nodiscard]] Elem deserialize(std::span<const std::uint8_t> bytes) const override;
  [[nodiscard]] std::size_t element_bytes() const override;

  /// Affine coordinates (standard form). Throws on the identity.
  [[nodiscard]] std::pair<Nat, Nat> to_affine(const Elem& pt) const;
  /// Point from affine coordinates (reduced mod p); validates the curve
  /// equation on the converted residues, which the point then keeps.
  [[nodiscard]] Elem from_affine(const Nat& x, const Nat& y) const;
  /// Curve-equation check on affine (standard-form) coordinates.
  [[nodiscard]] bool on_curve(const Nat& x, const Nat& y) const;

 private:
  static constexpr std::size_t kLimbs = 4;  // widest field: P-256
  /// A field residue in Montgomery form, zero-padded to kLimbs limbs.
  struct Fe {
    mpz::Limb l[kLimbs] = {};
    friend bool operator==(const Fe&, const Fe&) = default;
  };
  /// A Jacobian point: x = X/Z^2, y = Y/Z^3.
  struct Point {
    Fe x, y, z;
    bool inf = false;
  };

  void fmul(Fe& out, const Fe& a, const Fe& b) const {
    field_.mont().mul_limbs(out.l, a.l, b.l);
  }
  void fadd(Fe& out, const Fe& a, const Fe& b) const {
    mpz::add_mod<kLimbs>(out.l, a.l, b.l, p_.l);
  }
  void fsub(Fe& out, const Fe& a, const Fe& b) const {
    mpz::sub_mod<kLimbs>(out.l, a.l, b.l, p_.l);
  }
  [[nodiscard]] Fe load(const Nat& residue) const;
  [[nodiscard]] Point load(const Elem& e) const;
  [[nodiscard]] Elem box(const Point& pt) const;
  [[nodiscard]] bool on_curve(const Fe& x, const Fe& y) const;
  void dbl(Point& out, const Point& pt) const;
  void add(Point& out, const Point& p, const Point& q) const;
  template <std::size_t N>
  [[nodiscard]] Point straus(const std::array<const Elem*, N>& bases,
                             const std::array<const Nat*, N>& exps) const;
  /// The affine residues x = X·zinv^2, y = Y·zinv^3 of the finite point
  /// pt, for zinv = 1/Z; all Montgomery form. x and y may alias pt.x, pt.y.
  void affine(Fe& x, Fe& y, const Point& pt, const Fe& zinv) const;
  /// The standard form of a Montgomery residue.
  [[nodiscard]] Fe standard(const Fe& a) const;
  /// 1/Z of every finite point of xs, in order (one FpCtx::inv_many).
  [[nodiscard]] std::vector<Nat> z_inverses(
      std::span<const Elem* const> xs) const;
  /// pt's encoding 0x04 || x || y into dst (element_bytes() bytes).
  void write_affine(std::uint8_t* dst, const Point& pt, const Fe& zinv) const;
  [[nodiscard]] const FixedBaseTable& gen_table() const;
  /// exp_fixed_many's scalar comb.
  [[nodiscard]] Elem comb(const FixedBaseTable& table, const Nat& scalar) const;

  CurveParams params_;
  mpz::FpCtx field_;
  Fe p_;       // the field prime (plain limbs)
  Fe a_, b_;   // curve coefficients, Montgomery form
  Fe one_;     // 1 in Montgomery form
  bool a_is_minus3_ = false;
  Elem gen_;
  std::optional<mpz::LaneConsts> lanes_;  // set iff batch_lanes() == 8
  // Lazily built comb table for the generator; call_once-guarded so
  // concurrent exp_g calls from the parallel engine are race-free.
  mutable std::once_flag gen_table_once_;
  mutable std::unique_ptr<FixedBaseTable> gen_table_;
};

/// Built-in curves.
[[nodiscard]] CurveParams nist_p192();
[[nodiscard]] CurveParams nist_p224();
[[nodiscard]] CurveParams nist_p256();

}  // namespace ppgr::group
