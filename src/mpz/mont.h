// Montgomery modular arithmetic for odd moduli.
//
// All heavy modular work in the library (Schnorr groups, elliptic-curve field
// arithmetic, ElGamal) runs through this context. Values passed to mul/exp
// are in Montgomery form; convert with to_mont/from_mont.
//
// Two layers: the raw-limb product kernels below (fixed-width stack arrays,
// no Nat, no allocation) and MontCtx, whose exp/dual_exp ladders run
// entirely on those kernels and touch Nat only at entry and exit. MontCtx
// picks its kernel once, at construction (see DESIGN.md Sec. 5e). Its batch
// ladders (exp_many / dual_exp_many) run 8 independent ladders per AVX-512
// IFMA vector, two vectors side by side, for 4-limb moduli on CPUs that
// have it, and the scalar ladders otherwise; both paths return the same
// fully reduced residues. comb_lanes runs one call of fixed-base combs on
// the same lanes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "mpz/nat.h"

namespace ppgr::mpz {

/// Portable CIOS Montgomery product on raw little-endian limbs:
/// out = a*b*R^{-1} mod m with R = 2^(64k). K is the compile-time width;
/// K = 0 takes the runtime width k (1 <= k <= MontCtx::kCiosMaxLimbs).
/// Requires a < R, b < m and n0inv = -m^{-1} mod 2^64; the result is fully
/// reduced (< m). `out` may alias `a` or `b`. Instantiated for K = 0..4.
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

/// out = a + b mod m on k <= Cap raw limbs, for a, b < m: the sum, minus m
/// unless that borrows past the sum's carry, chosen branch-free (k = Cap
/// unrolls). out may alias a or b.
template <std::size_t Cap>
[[gnu::always_inline]] inline void add_mod(Limb* out, const Limb* a,
                                           const Limb* b, const Limb* m,
                                           std::size_t k = Cap) {
  using U128 = unsigned __int128;
  Limb s[Cap];
  Limb carry = 0, borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const U128 t = static_cast<U128>(a[j]) + b[j] + carry;
    s[j] = static_cast<Limb>(t);
    carry = static_cast<Limb>(t >> 64);
  }
  for (std::size_t j = 0; j < k; ++j) {
    const U128 t = static_cast<U128>(s[j]) - m[j] - borrow;
    out[j] = static_cast<Limb>(t);
    borrow = static_cast<Limb>(t >> 64) & 1;
  }
  const Limb keep_s = Limb{0} - (borrow & (carry ^ 1));
  for (std::size_t j = 0; j < k; ++j)
    out[j] = (s[j] & keep_s) | (out[j] & ~keep_s);
}

/// out = a - b mod m with add_mod's contract: the difference, plus m if it
/// borrowed.
template <std::size_t Cap>
[[gnu::always_inline]] inline void sub_mod(Limb* out, const Limb* a,
                                           const Limb* b, const Limb* m,
                                           std::size_t k = Cap) {
  using U128 = unsigned __int128;
  Limb borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const U128 t = static_cast<U128>(a[j]) - b[j] - borrow;
    out[j] = static_cast<Limb>(t);
    borrow = static_cast<Limb>(t >> 64) & 1;
  }
  const Limb mask = Limb{0} - borrow;
  Limb carry = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const U128 t = static_cast<U128>(out[j]) + (m[j] & mask) + carry;
    out[j] = static_cast<Limb>(t);
    carry = static_cast<Limb>(t >> 64);
  }
}

/// Radix-2^52 constants of the 8-lane ladders (MontCtx's and EcGroup's),
/// each a 5-limb value: the modulus, one in the lane domain (2^260 mod m),
/// and the entry and exit factors 2^(520-64k) and 2^(64k) mod m for
/// Montgomery residues on k limbs (see mpz/ifma_lanes.h).
struct LaneConsts {
  std::array<Limb, 5> m, one, to_lane, from_lane;
  Limb k0;  // -m^{-1} mod 2^52
};

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
  /// The same product on raw limbs, through the same kernel: out = a*b/R
  /// mod m on limbs() limbs each, with mont_mul's contract (a < R, b < m,
  /// result fully reduced, out may alias a or b). For callers that keep
  /// their residues on the stack (EcGroup's point formulas, the Shamir
  /// engine's share arithmetic).
  void mul_limbs(Limb* out, const Limb* a, const Limb* b) const;
  /// to_mont / from_mont on limbs() raw limbs, each one product through
  /// the same kernel: out = a·R mod m for a < m, and out = a/R mod m for
  /// a < R. out may alias a.
  void to_mont_limbs(Limb* out, const Limb* a) const;
  void from_mont_limbs(Limb* out, const Limb* a) const;
  /// out[i] = a[i] + b[i] mod m and out[i] = a[i] - b[i] mod m for `count`
  /// consecutive residues of limbs() limbs each, all below m; branch-free,
  /// and out may alias a or b.
  void add_limbs(Limb* out, const Limb* a, const Limb* b,
                 std::size_t count = 1) const;
  void sub_limbs(Limb* out, const Limb* a, const Limb* b,
                 std::size_t count = 1) const;
  /// acc[i] = acc[i] + s * xs[i] mod m for `count` consecutive residues of
  /// limbs() limbs each: one scalar s times a vector, added in place, all in
  /// Montgomery form and below m (s may not overlap acc). The inner loop of
  /// Shamir dealing and GRR recombination.
  void mul_add_limbs(Limb* acc, const Limb* s, const Limb* xs,
                     std::size_t count) const;
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

  /// Batch exp: out[i] = exp(bases[i], exps[i]), same values, with exp's
  /// contract (bases in Montgomery form, below the modulus). All spans have
  /// out.size() elements (std::invalid_argument otherwise); out[i] may be
  /// the same object as bases[i] or exps[i], but must not overlap any other
  /// input element. Returns the elements the lanes set, in the calls
  /// lanes::split_lanes cuts (0 on the scalar ladders).
  std::size_t exp_many(std::span<const Nat> bases, std::span<const Nat> exps,
                       std::span<Nat> out) const;
  /// Batch dual_exp: out[i] = dual_exp(xs[i], exs[i], ys[i], eys[i]), with
  /// exp_many's size and aliasing rules, split and return value.
  std::size_t dual_exp_many(std::span<const Nat> xs, std::span<const Nat> exs,
                            std::span<const Nat> ys, std::span<const Nat> eys,
                            std::span<Nat> out) const;
  /// One lane call of the 8-lane fixed-base comb (DESIGN.md Sec. 5e) over
  /// 1 to 16 scalars, the last batch padded with zero scalars
  /// (std::invalid_argument on another count, or when out has another
  /// size): out[i] = the product over the windows k < ceil(bits_i / w) of
  /// table[k][digit_k(scalars[i])], the fully reduced residue the scalar
  /// comb forms with mul. `table` holds 2^w consecutive Montgomery residues
  /// per window, each on four limbs and fully reduced, with entry 0 of
  /// every window one_mont(). Requires batch_lanes() == 8
  /// (std::logic_error otherwise). Returns false, with out untouched, when
  /// a scalar is wider than 512 bits or than the table's
  /// table.size() / 2^(w+2) windows cover.
  [[nodiscard]] bool comb_lanes(std::span<const Limb> table, std::size_t w,
                                std::span<const Nat> scalars,
                                std::span<Nat> out) const;
  /// Batch inverse (Montgomery's trick): out[i] = xs[i]^{-1}, in Montgomery
  /// form, for Montgomery-form xs[i] below the modulus. Prefix products,
  /// one binary invmod of the whole product, then back-substitution:
  /// 3(n-1) products and one inversion for n elements, and each out[i] is
  /// the unique fully reduced inverse, as one-by-one inversion gives it.
  /// xs and out have the same size (std::invalid_argument otherwise) and
  /// must not overlap. If any xs[i] shares a factor with the modulus (zero
  /// included), the product has no inverse: std::domain_error, and out
  /// holds no inverses.
  void inv_many(std::span<const Nat> xs, std::span<Nat> out) const;
  /// Ladders the batch forms run per step: 8 on the IFMA path (4-limb
  /// moduli on an IFMA CPU), 1 on the scalar ladders.
  [[nodiscard]] std::size_t batch_lanes() const {
    return lanes_.has_value() ? 8 : 1;
  }

  /// 1 in Montgomery form (== R mod m).
  [[nodiscard]] const Nat& one_mont() const { return r_mod_m_; }

  /// Widest modulus (in limbs) a context accepts: 4096 bits covers every
  /// group this library ships (dl-3072 is 48 limbs) and keeps every ladder
  /// buffer on the stack.
  static constexpr std::size_t kCiosMaxLimbs = 64;

 private:
  // The product kernel, chosen once per context from the width and CPU.
  enum class Kernel : std::uint8_t {
    kAdx4, kCios1, kCios2, kCios3, kCios4, kCiosN
  };

  template <class F>
  decltype(auto) with_kernel(F&& f) const;

  Nat m_;
  std::size_t k_;
  Limb n0inv_;     // -m^{-1} mod 2^64
  Kernel kernel_;
  Nat rr_;         // R^2 mod m
  Nat r_mod_m_;    // R mod m
  std::optional<LaneConsts> lanes_;  // set iff batch_lanes() == 8
};

}  // namespace ppgr::mpz
