// Montgomery modular arithmetic for odd moduli.
//
// All heavy modular work in the library (Schnorr groups, elliptic-curve field
// arithmetic, ElGamal) runs through this context. Values passed to mul/exp
// are in Montgomery form; convert with to_mont/from_mont.
//
// Two layers: the raw-limb product kernels below (fixed-width stack arrays,
// no Nat, no allocation) and MontCtx, whose exp/dual_exp ladders run
// entirely on those kernels and touch Nat only at entry and exit. MontCtx
// picks its kernel once, at construction (see DESIGN.md Sec. 5e).
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpz/nat.h"

namespace ppgr::mpz {

/// Portable CIOS Montgomery product on raw little-endian limbs:
/// out = a*b*R^{-1} mod m with R = 2^(64k). K is the compile-time width;
/// K = 0 takes the runtime width k (1 <= k <= MontCtx::kCiosMaxLimbs).
/// Requires a < R, b < m and n0inv = -m^{-1} mod 2^64; the result is fully
/// reduced (< m). `out` may alias `a` or `b`. Instantiated for K = 0, 3, 4.
template <std::size_t K>
void mont_mul(Limb* out, const Limb* a, const Limb* b, const Limb* m,
              Limb n0inv, std::size_t k = K);

/// True when this CPU has BMI2 and ADX, i.e. can run mont_mul4_adx.
[[nodiscard]] bool cpu_has_mulx_adx();

/// The 4-limb product with the same contract as mont_mul<4>, as an x86-64
/// mulx/adcx/adox CIOS. Call only when cpu_has_mulx_adx(); on other targets
/// it is the portable kernel.
void mont_mul4_adx(Limb* out, const Limb* a, const Limb* b, const Limb* m,
                   Limb n0inv);

class MontCtx {
 public:
  /// Modulus must be odd and > 1 (std::invalid_argument otherwise) and at
  /// most kCiosMaxLimbs limbs wide (std::length_error otherwise).
  explicit MontCtx(Nat modulus);

  [[nodiscard]] const Nat& modulus() const { return m_; }
  /// Number of limbs of the modulus (the Montgomery "k").
  [[nodiscard]] std::size_t limbs() const { return k_; }

  /// a*R mod m (a must be < m).
  [[nodiscard]] Nat to_mont(const Nat& a) const;
  /// a/R mod m.
  [[nodiscard]] Nat from_mont(const Nat& a) const;
  /// Montgomery product: a*b/R mod m (both in Montgomery form), through the
  /// context's kernel.
  [[nodiscard]] Nat mul(const Nat& a, const Nat& b) const;
  /// Montgomery square: same value as mul(a, a). A squaring-specific entry
  /// point so call sites express intent; see mont.cpp for why it currently
  /// rides the multiply.
  [[nodiscard]] Nat sqr(const Nat& a) const;
  /// Modular addition of Montgomery-form values.
  [[nodiscard]] Nat add(const Nat& a, const Nat& b) const;
  /// Modular subtraction of Montgomery-form values.
  [[nodiscard]] Nat sub(const Nat& a, const Nat& b) const;
  /// base^e mod m, base in Montgomery form, e a plain Nat of any width;
  /// 4-bit fixed window.
  [[nodiscard]] Nat exp(const Nat& base, const Nat& e) const;
  /// x^ex * y^ey mod m, x and y in Montgomery form: a 2-term Straus ladder
  /// (4-bit interleaved windows) sharing one run of squarings.
  [[nodiscard]] Nat dual_exp(const Nat& x, const Nat& ex, const Nat& y,
                             const Nat& ey) const;

  /// 1 in Montgomery form (== R mod m).
  [[nodiscard]] const Nat& one_mont() const { return r_mod_m_; }

  /// Widest modulus (in limbs) a context accepts: 4096 bits covers every
  /// group this library ships (dl-3072 is 48 limbs) and keeps every ladder
  /// buffer on the stack.
  static constexpr std::size_t kCiosMaxLimbs = 64;

 private:
  // The product kernel, chosen once per context from the width and CPU.
  enum class Kernel : std::uint8_t { kAdx4, kCios3, kCios4, kCiosN };

  template <class F>
  decltype(auto) with_kernel(F&& f) const;

  Nat m_;
  std::size_t k_;
  Limb n0inv_;     // -m^{-1} mod 2^64
  Kernel kernel_;
  Nat rr_;         // R^2 mod m
  Nat r_mod_m_;    // R mod m
};

}  // namespace ppgr::mpz
