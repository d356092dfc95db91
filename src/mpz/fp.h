// Prime-field context Z_p.
//
// A thin, explicit layer over MontCtx: every element handled through FpCtx is
// a Nat *in Montgomery form*. This keeps secret-sharing polynomial
// evaluation fast (no per-operation conversions) while staying value-typed.
// The secure dot-product protocol and the Shamir substrate are both written
// against this class; EcGroup uses it for conversions and inversions and
// runs its point formulas on raw limbs through mont().mul_limbs.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mpz/mont.h"
#include "mpz/rng.h"
#include "mpz/sint.h"

namespace ppgr::mpz {

class FpCtx {
 public:
  /// p must be an odd prime > 2 (primality is the caller's responsibility;
  /// oddness is enforced).
  explicit FpCtx(Nat p);

  [[nodiscard]] const Nat& p() const { return mont_.modulus(); }
  [[nodiscard]] std::size_t bits() const { return p().bit_length(); }
  /// The Montgomery context underneath: its raw-limb product (mul_limbs)
  /// serves callers that keep field elements on the stack.
  [[nodiscard]] const MontCtx& mont() const { return mont_; }

  // --- conversions (standard <-> Montgomery form) ---
  /// Standard representative (reduced mod p first) -> field element.
  [[nodiscard]] Nat to(const Nat& standard) const;
  /// Signed integer -> field element (Euclidean reduction).
  [[nodiscard]] Nat to_signed(const Int& v) const;
  /// Field element -> standard representative in [0, p).
  [[nodiscard]] Nat from(const Nat& elem) const { return mont_.from_mont(elem); }
  /// Field element -> signed integer, centering to (-p/2, p/2].
  [[nodiscard]] Int from_centered(const Nat& elem) const;

  // --- arithmetic on field elements ---
  [[nodiscard]] Nat zero() const { return Nat{}; }
  [[nodiscard]] const Nat& one() const { return mont_.one_mont(); }
  [[nodiscard]] Nat add(const Nat& a, const Nat& b) const { return mont_.add(a, b); }
  [[nodiscard]] Nat sub(const Nat& a, const Nat& b) const { return mont_.sub(a, b); }
  [[nodiscard]] Nat neg(const Nat& a) const;
  [[nodiscard]] Nat mul(const Nat& a, const Nat& b) const { return mont_.mul(a, b); }
  [[nodiscard]] Nat sqr(const Nat& a) const { return mont_.sqr(a); }
  /// a^e for plain (non-field) exponent e.
  [[nodiscard]] Nat pow(const Nat& a, const Nat& e) const { return mont_.exp(a, e); }
  /// Multiplicative inverse; throws std::domain_error on zero.
  [[nodiscard]] Nat inv(const Nat& a) const;
  /// Batched inverse (Montgomery's trick, MontCtx::inv_many): one field
  /// inversion plus 3(n-1) multiplications for n elements. Element i of the
  /// result equals inv(xs[i]) exactly.
  /// Throws std::domain_error naming the offending index if any input is
  /// zero — the whole batch is rejected, nothing is partially computed.
  [[nodiscard]] std::vector<Nat> inv_many(std::span<const Nat> xs) const;
  /// a/b.
  [[nodiscard]] Nat div(const Nat& a, const Nat& b) const { return mul(a, inv(b)); }
  /// Square root in the field, if one exists: a^((p+1)/4) when p ≡ 3
  /// (mod 4), otherwise Tonelli–Shanks from the least non-residue z >= 2.
  /// Which of the two roots it returns is pinned by mpz_modular_test.
  [[nodiscard]] std::optional<Nat> sqrt(const Nat& a) const;

  [[nodiscard]] bool is_zero(const Nat& a) const { return a.is_zero(); }
  [[nodiscard]] bool eq(const Nat& a, const Nat& b) const { return a == b; }

  /// Uniform random field element.
  [[nodiscard]] Nat random(Rng& rng) const;
  /// Uniform random nonzero field element.
  [[nodiscard]] Nat random_nonzero(Rng& rng) const;
  /// random() on raw limbs: the same draw (Rng::below_limbs on p's limbs,
  /// the bytes rng.below(p()) draws), landed in Montgomery form in
  /// out[0, mont().limbs()) with one kernel product.
  void random_limbs(Rng& rng, Limb* out) const;

 private:
  MontCtx mont_;
};

}  // namespace ppgr::mpz
