#include "mpz/mont.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "mpz/ifma_lanes.h"
#include "mpz/modarith.h"

namespace ppgr::mpz {

namespace {
using U128 = unsigned __int128;

// -x^{-1} mod 2^64 for odd x, by Newton iteration.
Limb neg_inv64(Limb x) {
  Limb inv = x;  // 3-bit correct seed for odd x
  for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
  return ~inv + 1;  // negate mod 2^64
}

// Coarsely Integrated Operand Scanning (Koç/Acar/Kaliski): one outer pass
// per limb of `a`, interleaving the partial product with the Montgomery
// reduction step, entirely on stack buffers. After the loop t[0..k] holds
// the (k+1)-limb pre-conditional result < 2m; the final subtraction is
// branch-free.
//
// Kc is the compile-time limb count (0 = use the runtime k): a constant trip
// count lets the compiler fully unroll the carry chains — roughly twice the
// throughput of the rolled loop at k=4 — and shrinks the scratch to k limbs.
// The runtime-width instance (Kc = 0) zero-fills kCiosMaxLimbs + 2 limbs of
// scratch per product, which dwarfs the arithmetic of a 1- or 2-limb
// product, so every width up to 4 limbs has a fixed instance. This is the
// only kernel on hosts without BMI2/ADX and for every width but 4 limbs.
template <std::size_t Kc>
[[gnu::always_inline]] inline void cios(Limb* out, const Limb* a,
                                        const Limb* b, const Limb* m,
                                        Limb n0inv, std::size_t k_runtime) {
  constexpr std::size_t kCap = Kc != 0 ? Kc : MontCtx::kCiosMaxLimbs;
  const std::size_t k = Kc != 0 ? Kc : k_runtime;
  Limb t[kCap + 2] = {};
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ai = a[i];
    // t += ai * b
    U128 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const U128 s = static_cast<U128>(ai) * b[j] + t[j] + static_cast<Limb>(carry);
      t[j] = static_cast<Limb>(s);
      carry = s >> 64;
    }
    {
      const U128 s = static_cast<U128>(t[k]) + static_cast<Limb>(carry);
      t[k] = static_cast<Limb>(s);
      t[k + 1] = static_cast<Limb>(s >> 64);
    }
    // t += (t[0] * n0inv mod 2^64) * m, then t >>= 64
    const Limb u = t[0] * n0inv;
    carry = (static_cast<U128>(u) * m[0] + t[0]) >> 64;
    for (std::size_t j = 1; j < k; ++j) {
      const U128 s = static_cast<U128>(u) * m[j] + t[j] + static_cast<Limb>(carry);
      t[j - 1] = static_cast<Limb>(s);
      carry = s >> 64;
    }
    {
      const U128 s = static_cast<U128>(t[k]) + static_cast<Limb>(carry);
      t[k - 1] = static_cast<Limb>(s);
      t[k] = t[k + 1] + static_cast<Limb>(s >> 64);
      t[k + 1] = 0;
    }
  }
  // out = t - m (a and b are no longer read, so out may alias them); keep
  // t instead when that borrows past the overflow limb t[k].
  Limb borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const U128 d = static_cast<U128>(t[j]) - m[j] - borrow;
    out[j] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> 64) & 1;
  }
  const Limb keep_t = Limb{0} - static_cast<Limb>(t[k] < borrow);
  for (std::size_t j = 0; j < k; ++j)
    out[j] = (t[j] & keep_t) | (out[j] & ~keep_t);
}

#if defined(__x86_64__)
// The 4-limb CIOS on mulx (flag-free 64x64->128 multiply from rdx) with two
// independent carry chains: adox folds the low product halves into t[j]
// along OF, adcx the high halves into t[j+1] along CF. Six registers hold
// the running t[0..5]; instead of shifting t down after each reduction, the
// next pass renames them (pass i uses r[(i+j) % 6] for t[j]), since the
// retired t[0] is exactly zero and becomes the next pass's t[5]. The
// mnemonics need no -mbmi2/-madx: the assembler accepts them regardless,
// and the code runs only after cpu_has_mulx_adx().
#define PPGR_ADX_MUL_PASS(OFF, T0, T1, T2, T3, T4, T5) \
  "movq " OFF "(%[a]), %%rdx\n\t"                      \
  "xorl %k[lo], %k[lo]\n\t"                            \
  "mulxq 0(%[b]), %[lo], %[hi]\n\t"                    \
  "adoxq %[lo], %[" T0 "]\n\t"                         \
  "adcxq %[hi], %[" T1 "]\n\t"                         \
  "mulxq 8(%[b]), %[lo], %[hi]\n\t"                    \
  "adoxq %[lo], %[" T1 "]\n\t"                         \
  "adcxq %[hi], %[" T2 "]\n\t"                         \
  "mulxq 16(%[b]), %[lo], %[hi]\n\t"                   \
  "adoxq %[lo], %[" T2 "]\n\t"                         \
  "adcxq %[hi], %[" T3 "]\n\t"                         \
  "mulxq 24(%[b]), %[lo], %[hi]\n\t"                   \
  "adoxq %[lo], %[" T3 "]\n\t"                         \
  "adcxq %[hi], %[" T4 "]\n\t"                         \
  "movl $0, %k[lo]\n\t"                                \
  "adoxq %[lo], %[" T4 "]\n\t"                         \
  "adcxq %[lo], %[" T5 "]\n\t"                         \
  "adoxq %[lo], %[" T5 "]\n\t"

#define PPGR_ADX_RED_PASS(T0, T1, T2, T3, T4, T5) \
  "movq %[" T0 "], %%rdx\n\t"                     \
  "imulq %[n0], %%rdx\n\t"                        \
  "xorl %k[lo], %k[lo]\n\t"                       \
  "mulxq 0(%[m]), %[lo], %[hi]\n\t"               \
  "adoxq %[lo], %[" T0 "]\n\t"                    \
  "adcxq %[hi], %[" T1 "]\n\t"                    \
  "mulxq 8(%[m]), %[lo], %[hi]\n\t"               \
  "adoxq %[lo], %[" T1 "]\n\t"                    \
  "adcxq %[hi], %[" T2 "]\n\t"                    \
  "mulxq 16(%[m]), %[lo], %[hi]\n\t"              \
  "adoxq %[lo], %[" T2 "]\n\t"                    \
  "adcxq %[hi], %[" T3 "]\n\t"                    \
  "mulxq 24(%[m]), %[lo], %[hi]\n\t"              \
  "adoxq %[lo], %[" T3 "]\n\t"                    \
  "adcxq %[hi], %[" T4 "]\n\t"                    \
  "movl $0, %k[lo]\n\t"                           \
  "adoxq %[lo], %[" T4 "]\n\t"                    \
  "adcxq %[lo], %[" T5 "]\n\t"                    \
  "adoxq %[lo], %[" T5 "]\n\t"

[[gnu::always_inline]] inline void cios4_adx(Limb* out, const Limb* a,
                                             const Limb* b, const Limb* m,
                                             Limb n0inv) {
  Limb r0 = 0, r1 = 0, r2 = 0, r3 = 0, r4 = 0, r5 = 0, lo = 0, hi = 0, dx = 0;
  asm(PPGR_ADX_MUL_PASS("0", "r0", "r1", "r2", "r3", "r4", "r5")
      PPGR_ADX_RED_PASS("r0", "r1", "r2", "r3", "r4", "r5")
      PPGR_ADX_MUL_PASS("8", "r1", "r2", "r3", "r4", "r5", "r0")
      PPGR_ADX_RED_PASS("r1", "r2", "r3", "r4", "r5", "r0")
      PPGR_ADX_MUL_PASS("16", "r2", "r3", "r4", "r5", "r0", "r1")
      PPGR_ADX_RED_PASS("r2", "r3", "r4", "r5", "r0", "r1")
      PPGR_ADX_MUL_PASS("24", "r3", "r4", "r5", "r0", "r1", "r2")
      PPGR_ADX_RED_PASS("r3", "r4", "r5", "r0", "r1", "r2")
      // t = (r4, r5, r0, r1) with overflow limb r2; r3 is free. Subtract m
      // and keep the difference unless it borrows past r2.
      "movq %[r4], %[lo]\n\t"
      "subq 0(%[m]), %[lo]\n\t"
      "movq %[r5], %[hi]\n\t"
      "sbbq 8(%[m]), %[hi]\n\t"
      "movq %[r0], %%rdx\n\t"
      "sbbq 16(%[m]), %%rdx\n\t"
      "movq %[r1], %[r3]\n\t"
      "sbbq 24(%[m]), %[r3]\n\t"
      "sbbq $0, %[r2]\n\t"
      "cmovncq %[lo], %[r4]\n\t"
      "cmovncq %[hi], %[r5]\n\t"
      "cmovncq %%rdx, %[r0]\n\t"
      "cmovncq %[r3], %[r1]\n\t"
      : [r0] "+&r"(r0), [r1] "+&r"(r1), [r2] "+&r"(r2), [r3] "+&r"(r3),
        [r4] "+&r"(r4), [r5] "+&r"(r5), [lo] "=&r"(lo), [hi] "=&r"(hi),
        "=&d"(dx)
      : [a] "r"(a), [b] "r"(b), [m] "r"(m), [n0] "m"(n0inv)
      : "cc", "memory");
  out[0] = r4;
  out[1] = r5;
  out[2] = r0;
  out[3] = r1;
}

#undef PPGR_ADX_MUL_PASS
#undef PPGR_ADX_RED_PASS
#else
inline void cios4_adx(Limb* out, const Limb* a, const Limb* b, const Limb* m,
                      Limb n0inv) {
  cios<4>(out, a, b, m, n0inv, 4);
}
#endif

// Kernel functors the ladders are instantiated over: kCap sizes the stack
// buffers, k is the live width (a compile-time constant for every kernel
// but the runtime-width one, so loops over it unroll).
template <std::size_t Kc>
struct Cios {
  static constexpr std::size_t kCap = Kc != 0 ? Kc : MontCtx::kCiosMaxLimbs;
  const Limb* m;
  Limb n0inv;
  std::size_t k_runtime;
  [[nodiscard]] std::size_t width() const { return Kc != 0 ? Kc : k_runtime; }
  void operator()(Limb* out, const Limb* a, const Limb* b) const {
    cios<Kc>(out, a, b, m, n0inv, k_runtime);
  }
};

struct Adx4 {
  static constexpr std::size_t kCap = 4;
  const Limb* m;
  Limb n0inv;
  static constexpr std::size_t width() { return 4; }
  void operator()(Limb* out, const Limb* a, const Limb* b) const {
    cios4_adx(out, a, b, m, n0inv);
  }
};

using lanes::kDigits;
using lanes::kWindow;
using lanes::nibble;

// Product of bases[i]^exps[i] over N = 1 (exp) or 2 (dual_exp) terms, at
// least one exponent nonzero: interleaved Straus with 4-bit windows, one
// squaring run shared by all terms and leading zero windows skipped. For
// N = 1 this is the plain fixed-window ladder.
template <std::size_t N, class Kern>
Nat straus_ladder(const Kern& mul, const std::array<const Nat*, N>& bases,
                  const std::array<const Nat*, N>& exps) {
  constexpr std::size_t kCap = Kern::kCap;
  const std::size_t k = mul.width();
  Limb table[N][kDigits][kCap] = {};
  std::size_t bits = 0;
  for (std::size_t i = 0; i < N; ++i) {
    bases[i]->to_limbs(table[i][1], k);
    for (std::size_t d = 2; d < kDigits; ++d)
      mul(table[i][d], table[i][d - 1], table[i][1]);
    bits = std::max(bits, exps[i]->bit_length());
  }
  Limb acc[kCap] = {};
  bool started = false;
  for (std::size_t w = (bits + kWindow - 1) / kWindow; w-- > 0;) {
    if (started)
      for (std::size_t s = 0; s < kWindow; ++s) mul(acc, acc, acc);
    for (std::size_t i = 0; i < N; ++i) {
      const unsigned d = nibble(*exps[i], w * kWindow);
      if (d == 0) continue;
      if (started) {
        mul(acc, acc, table[i][d]);
      } else {
        std::copy_n(table[i][d], k, acc);
        started = true;
      }
    }
  }
  return Nat::from_limbs({acc, k});
}

// ---- 8-lane batch ladders: AVX-512 IFMA, 4-limb moduli ----
//
// The lane arithmetic (radix-2^52 residues, the almost-Montgomery product
// amm8 and the lane domain) is shared with EcGroup's ladders; see
// mpz/ifma_lanes.h. The schedule is straus_ladder's; every lane looks up its
// own digit (vpgatherqq), and table entry 0 is the lane domain's one, so a
// zero digit multiplies by one and all lanes run the same sequence of
// products.

using lanes::kLanes;
using lanes::kLimbs52;

#if defined(__x86_64__)
#pragma GCC diagnostic push
// GCC 12 flags the deliberate self-initialization in _mm512_undefined_epi32,
// which the gather and shift intrinsics use, as (maybe-)uninitialized (GCC
// bug 105593).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

using lanes::amm8;
using lanes::broadcast;
using lanes::Lane5;
using lanes::LaneTable;
using lanes::load5;
using lanes::store5;

// out[l] = lane l of amm8(acc, f), fully reduced to four limbs, for
// l < count: the exit of every lane ladder, f the factor that takes the lane
// result to a 64-bit Montgomery residue. Lanes from count on are padding and
// write nothing.
PPGR_IFMA_INLINE void leave_lanes(Lane5 acc, const Lane5& f, const Lane5& m,
                                  __m512i k0, const Limb* m64,
                                  std::size_t count, Nat* out) {
  amm8(acc, acc, f, m, k0);
  alignas(64) LaneTable res;
  store5(res, acc);
  for (std::size_t l = 0; l < kLanes && l < count; ++l) {
    const Limb r[kLimbs52] = {res[0][l], res[1][l], res[2][l], res[3][l],
                              res[4][l]};
    Limb x[4] = {};
    lanes::from_radix52(x, r, m64);
    out[l] = Nat::from_limbs({x, 4});
  }
}

// B batches of eight ladders: lane l of batch b sets out[8b + l] to the
// product over the N terms of bases[i][8b + l]^exps[i][8b + l], where
// bases[i] and exps[i] point at the call's consecutive values and the bases
// are fully reduced 64-bit-limb Montgomery residues. Only the first `count`
// lanes (more than 8(B - 1)) read an input or write out; the rest are
// padding, with one as base and a zero exponent. Every input is read before
// out is written. One lane product is a dependent chain of vpmadd52s, so a
// single batch leaves the multiplier waiting on its latency; the batches'
// products are independent and issued side by side, step by step, which
// keeps the pipeline busy at B = 2 (three or four chains measured no
// better; BM_LaneProduct). The window squarings run asq8.
template <std::size_t N, std::size_t B>
PPGR_IFMA void straus_lanes(const LaneConsts& c, const Limb* m64,
                            const std::array<const Nat*, N>& bases,
                            const std::array<const Nat*, N>& exps,
                            std::size_t count, Nat* out) {
  // table[b][i][d][j][l]: limb j of bases[i][8b + l]^d in the lane domain.
  alignas(64) LaneTable table[B][N][kDigits];
  const Lane5 m = broadcast(c.m);
  const __m512i k0 = _mm512_set1_epi64(static_cast<long long>(c.k0));
  const Lane5 one = broadcast(c.one);
  // e[i][lane]: the lane's exponent, zero on a padded lane.
  static const Nat kZero;
  std::array<const Nat*, B * kLanes> e[N];
  std::size_t bits = 0;
  for (std::size_t i = 0; i < N; ++i) {
    Lane5 x[B], xd[B];
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::size_t lane = b * kLanes + l;
        // c.from_lane is R mod m: one, as a 64-bit Montgomery residue.
        const auto v =
            lane < count ? lanes::to_radix52(bases[i][lane]) : c.from_lane;
        for (std::size_t j = 0; j < kLimbs52; ++j) table[b][i][1][j][l] = v[j];
        e[i][lane] = lane < count ? &exps[i][lane] : &kZero;
        bits = std::max(bits, e[i][lane]->bit_length());
      }
      x[b] = load5(table[b][i][1]);
      amm8(x[b], x[b], broadcast(c.to_lane), m, k0);
      store5(table[b][i][0], one);
      store5(table[b][i][1], x[b]);
      xd[b] = x[b];
    }
    for (std::size_t d = 2; d < kDigits; ++d)
      for (std::size_t b = 0; b < B; ++b) {
        amm8(xd[b], xd[b], x[b], m, k0);
        store5(table[b][i][d], xd[b]);
      }
  }
  Lane5 acc[B];
  for (std::size_t b = 0; b < B; ++b) acc[b] = one;
  bool started = false;
  for (std::size_t w = (bits + kWindow - 1) / kWindow; w-- > 0;) {
    if (started)
      for (std::size_t s = 0; s < kWindow; ++s)
        for (std::size_t b = 0; b < B; ++b) lanes::asq8(acc[b], acc[b], m, k0);
    for (std::size_t i = 0; i < N; ++i) {
      Lane5 g[B];
      for (std::size_t b = 0; b < B; ++b) {
        // Lane l's entry for digit d starts d * sizeof(LaneTable) + l limbs
        // into the table.
        alignas(64) Limb offset[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l)
          offset[l] = nibble(*e[i][b * kLanes + l], w * kWindow) * kLimbs52 *
                          kLanes +
                      l;
        const __m512i idx = _mm512_load_si512(offset);
        for (std::size_t j = 0; j < kLimbs52; ++j)
          g[b].l[j] = _mm512_i64gather_epi64(idx, table[b][i][0][j], 8);
      }
      for (std::size_t b = 0; b < B; ++b)
        if (started) amm8(acc[b], acc[b], g[b], m, k0);
        else acc[b] = g[b];
      started = true;
    }
  }
  for (std::size_t b = 0; b < B; ++b)
    leave_lanes(acc[b], broadcast(c.from_lane), m, k0, m64, count - b * kLanes,
                out + b * kLanes);
}

// B batches of eight fixed-base combs: lane l of batch b sets out[8b + l]
// to the product of table[k][digit_k(scalars[8b + l])] over the first
// `windows` windows, for the first `count` lanes (more than 8(B - 1)); the
// rest are padding with a zero scalar and write nothing. The table holds
// 2^w entries per window on four
// 64-bit limbs each, fully reduced, entry 0 the Montgomery one R mod m
// (R = 2^256). Each window's entries are gathered (vpgatherqq, one lane's
// digit each) and multiplied in as stored: the first window's entry is the
// accumulator's start, and every later window is one amm8, so after
// `windows` entries x_k R the accumulator holds (prod x_k) R^W / R'^(W-1)
// with W = windows and R' = 2^260. Every lane runs the same products, a zero
// digit multiplying by the stored one, so the drift is the same fixed power
// of two in every lane; `exit` = 2^(4W) R mod m removes it in one last
// amm8, leaving (prod x_k) R, the scalar comb's Montgomery product.
template <std::size_t B>
PPGR_IFMA void fixed_base_lanes(const LaneConsts& c, const Limb* m64,
                                const Limb* table, std::size_t w,
                                std::size_t windows,
                                const std::array<Limb, kLimbs52>& exit,
                                const Nat* scalars, std::size_t count,
                                Nat* out) {
  const Lane5 m = broadcast(c.m);
  const __m512i k0 = _mm512_set1_epi64(static_cast<long long>(c.k0));
  __m512i s[B][lanes::kCombLimbs + 1];
  for (std::size_t b = 0; b < B; ++b)
    lanes::load_scalars(s[b], scalars + b * kLanes,
                        std::min(count - b * kLanes, kLanes));
  Lane5 acc[B];
  for (std::size_t k = 0; k < windows; ++k) {
    const __m512i row = _mm512_set1_epi64(static_cast<long long>(k << w));
    Lane5 e[B];
    for (std::size_t b = 0; b < B; ++b) {
      // Entry (k << w) + d starts 4 * ((k << w) + d) limbs into the table.
      const __m512i idx = _mm512_slli_epi64(
          _mm512_add_epi64(row, lanes::comb_digits(s[b], k, w)), 2);
      __m512i x[4];
      for (std::size_t j = 0; j < 4; ++j)
        x[j] = _mm512_i64gather_epi64(idx, table + j, 8);
      e[b] = lanes::radix52(x);
    }
    for (std::size_t b = 0; b < B; ++b)
      if (k == 0) acc[b] = e[b];
      else amm8(acc[b], acc[b], e[b], m, k0);
  }
  for (std::size_t b = 0; b < B; ++b)
    leave_lanes(acc[b], broadcast(exit), m, k0, m64, count - b * kLanes,
                out + b * kLanes);
}

#pragma GCC diagnostic pop
#endif  // __x86_64__

}  // namespace

template <std::size_t K>
void mont_mul(Limb* out, const Limb* a, const Limb* b, const Limb* m,
              Limb n0inv, std::size_t k) {
  cios<K>(out, a, b, m, n0inv, k);
}
template void mont_mul<0>(Limb*, const Limb*, const Limb*, const Limb*, Limb,
                          std::size_t);
template void mont_mul<1>(Limb*, const Limb*, const Limb*, const Limb*, Limb,
                          std::size_t);
template void mont_mul<2>(Limb*, const Limb*, const Limb*, const Limb*, Limb,
                          std::size_t);
template void mont_mul<3>(Limb*, const Limb*, const Limb*, const Limb*, Limb,
                          std::size_t);
template void mont_mul<4>(Limb*, const Limb*, const Limb*, const Limb*, Limb,
                          std::size_t);

bool cpu_has_mulx_adx() {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
  }();
  return has;
#else
  return false;
#endif
}

void mont_mul4_adx(Limb* out, const Limb* a, const Limb* b, const Limb* m,
                   Limb n0inv) {
  cios4_adx(out, a, b, m, n0inv);
}

LaneConsts lanes::lane_consts(const Nat& m, const Nat& r_mod_m,
                              std::size_t k) {
  // x * 2^(260 - 64k) mod m by modular doublings of x < m.
  const auto up = [&](Nat x) {
    for (std::size_t s = 64 * k; s < 260; ++s) {
      x = Nat::add(x, x);
      if (x >= m) x = Nat::sub(x, m);
    }
    return x;
  };
  const Nat one = up(r_mod_m);
  return LaneConsts{.m = lanes::to_radix52(m),
                    .one = lanes::to_radix52(one),
                    .to_lane = lanes::to_radix52(up(one)),
                    .from_lane = lanes::to_radix52(r_mod_m),
                    .k0 = neg_inv64(m.limb(0)) & lanes::kMask52};
}

MontCtx::MontCtx(Nat modulus) : m_(std::move(modulus)) {
  if (m_.is_even() || m_ <= Nat{1})
    throw std::invalid_argument("MontCtx: modulus must be odd and > 1");
  k_ = m_.limb_count();
  if (k_ > kCiosMaxLimbs)
    throw std::length_error("MontCtx: modulus wider than 4096 bits");
  n0inv_ = neg_inv64(m_.limb(0));
  switch (k_) {
    case 1: kernel_ = Kernel::kCios1; break;
    case 2: kernel_ = Kernel::kCios2; break;
    case 3: kernel_ = Kernel::kCios3; break;
    case 4: kernel_ = cpu_has_mulx_adx() ? Kernel::kAdx4 : Kernel::kCios4; break;
    default: kernel_ = Kernel::kCiosN; break;
  }
  r_mod_m_ = Nat::pow2(64 * k_) % m_;
  rr_ = Nat::pow2(128 * k_) % m_;
  if (k_ == 4 && lanes::cpu_has_avx512ifma())
    lanes_ = lanes::lane_consts(m_, r_mod_m_, k_);
}

template <class F>
decltype(auto) MontCtx::with_kernel(F&& f) const {
  const Limb* m = m_.limbs().data();
  switch (kernel_) {
    case Kernel::kAdx4: return f(Adx4{m, n0inv_});
    case Kernel::kCios1: return f(Cios<1>{m, n0inv_, 1});
    case Kernel::kCios2: return f(Cios<2>{m, n0inv_, 2});
    case Kernel::kCios3: return f(Cios<3>{m, n0inv_, 3});
    case Kernel::kCios4: return f(Cios<4>{m, n0inv_, 4});
    case Kernel::kCiosN: break;
  }
  return f(Cios<0>{m, n0inv_, k_});
}

Nat MontCtx::to_mont(const Nat& a) const { return mul(a, rr_); }

Nat MontCtx::from_mont(const Nat& a) const {
  // The Montgomery product with plain 1; the kernels take k-limb operands,
  // so anything wider is reduced first.
  if (a.limb_count() > k_) return from_mont(a % m_);
  return mul(a, Nat{1});
}

Nat MontCtx::mul(const Nat& a, const Nat& b) const {
  return with_kernel([&](const auto& kern) {
    constexpr std::size_t kCap = std::remove_cvref_t<decltype(kern)>::kCap;
    Limb al[kCap] = {}, bl[kCap] = {}, out[kCap] = {};
    a.to_limbs(al, k_);
    b.to_limbs(bl, k_);
    kern(out, al, bl);
    return Nat::from_limbs({out, k_});
  });
}

void MontCtx::mul_limbs(Limb* out, const Limb* a, const Limb* b) const {
  with_kernel([&](const auto& kern) { kern(out, a, b); });
}

void MontCtx::to_mont_limbs(Limb* out, const Limb* a) const {
  with_kernel([&](const auto& kern) {
    Limb rr[std::remove_cvref_t<decltype(kern)>::kCap] = {};
    rr_.to_limbs(rr, k_);
    kern(out, a, rr);
  });
}

void MontCtx::from_mont_limbs(Limb* out, const Limb* a) const {
  with_kernel([&](const auto& kern) {
    Limb one[std::remove_cvref_t<decltype(kern)>::kCap] = {1};
    kern(out, a, one);
  });
}

void MontCtx::add_limbs(Limb* out, const Limb* a, const Limb* b,
                        std::size_t count) const {
  with_kernel([&](const auto& kern) {
    constexpr std::size_t kCap = std::remove_cvref_t<decltype(kern)>::kCap;
    for (std::size_t i = 0; i < count * k_; i += k_)
      add_mod<kCap>(out + i, a + i, b + i, kern.m, kern.width());
  });
}

void MontCtx::sub_limbs(Limb* out, const Limb* a, const Limb* b,
                        std::size_t count) const {
  with_kernel([&](const auto& kern) {
    constexpr std::size_t kCap = std::remove_cvref_t<decltype(kern)>::kCap;
    for (std::size_t i = 0; i < count * k_; i += k_)
      sub_mod<kCap>(out + i, a + i, b + i, kern.m, kern.width());
  });
}

void MontCtx::mul_add_limbs(Limb* acc, const Limb* s, const Limb* xs,
                            std::size_t count) const {
  with_kernel([&](const auto& kern) {
    constexpr std::size_t kCap = std::remove_cvref_t<decltype(kern)>::kCap;
    Limb prod[kCap] = {};
    for (std::size_t i = 0; i < count * k_; i += k_) {
      kern(prod, s, xs + i);
      add_mod<kCap>(acc + i, acc + i, prod, kern.m, kern.width());
    }
  });
}

// For the 64-bit scalar CIOS kernel, measured on the 4-limb protocol
// moduli, a dedicated SOS squaring (halved off-diagonal products, separate
// reduction pass) LOSES to the fused CIOS multiply: the doubling pass and
// the extra scratch traffic cost more than the k(k-1)/2 saved limb products
// at these widths. sqr() therefore rides the multiply; the entry point
// stays so callers express intent and wider-limb specializations can slot
// in without touching call sites. The 8-lane ladders are another matter:
// their window squarings run lanes::asq8, which saves 20 of amm8's 105
// vpmadd52, and that saving shows because two interleaved batches keep the
// multiplier's pipeline full, so the ladder is bound by issued
// instructions rather than by one product's latency.
Nat MontCtx::sqr(const Nat& a) const { return mul(a, a); }

Nat MontCtx::add(const Nat& a, const Nat& b) const {
  Nat s = Nat::add(a, b);
  if (s >= m_) s = Nat::sub(s, m_);
  return s;
}

Nat MontCtx::sub(const Nat& a, const Nat& b) const {
  if (a >= b) return Nat::sub(a, b);
  return Nat::sub(Nat::add(a, m_), b);
}

Nat MontCtx::exp(const Nat& base, const Nat& e) const {
  if (e.is_zero()) return r_mod_m_;
  return with_kernel([&](const auto& kern) {
    return straus_ladder<1>(kern, {&base}, {&e});
  });
}

Nat MontCtx::dual_exp(const Nat& x, const Nat& ex, const Nat& y,
                      const Nat& ey) const {
  if (ex.is_zero() && ey.is_zero()) return r_mod_m_;
  return with_kernel([&](const auto& kern) {
    return straus_ladder<2>(kern, {&x, &y}, {&ex, &ey});
  });
}

std::size_t MontCtx::exp_many(std::span<const Nat> bases,
                              std::span<const Nat> exps,
                              std::span<Nat> out) const {
  if (bases.size() != out.size() || exps.size() != out.size())
    throw std::invalid_argument("MontCtx::exp_many: span sizes differ");
  const auto scalar = [&](std::size_t j) { out[j] = exp(bases[j], exps[j]); };
#if defined(__x86_64__)
  if (lanes_.has_value())
    return lanes::split_lanes(
        out.size(),
        [&]<std::size_t B>(std::size_t i, std::size_t count) {
          straus_lanes<1, B>(*lanes_, m_.limbs().data(), {&bases[i]},
                             {&exps[i]}, count, &out[i]);
          return true;
        },
        scalar);
#endif
  for (std::size_t i = 0; i < out.size(); ++i) scalar(i);
  return 0;
}

std::size_t MontCtx::dual_exp_many(std::span<const Nat> xs,
                                   std::span<const Nat> exs,
                                   std::span<const Nat> ys,
                                   std::span<const Nat> eys,
                                   std::span<Nat> out) const {
  if (xs.size() != out.size() || exs.size() != out.size() ||
      ys.size() != out.size() || eys.size() != out.size())
    throw std::invalid_argument("MontCtx::dual_exp_many: span sizes differ");
  const auto scalar = [&](std::size_t j) {
    out[j] = dual_exp(xs[j], exs[j], ys[j], eys[j]);
  };
#if defined(__x86_64__)
  if (lanes_.has_value())
    return lanes::split_lanes(
        out.size(),
        [&]<std::size_t B>(std::size_t i, std::size_t count) {
          straus_lanes<2, B>(*lanes_, m_.limbs().data(), {&xs[i], &ys[i]},
                             {&exs[i], &eys[i]}, count, &out[i]);
          return true;
        },
        scalar);
#endif
  for (std::size_t i = 0; i < out.size(); ++i) scalar(i);
  return 0;
}

bool MontCtx::comb_lanes(std::span<const Limb> table, std::size_t w,
                         std::span<const Nat> scalars,
                         std::span<Nat> out) const {
  if (scalars.size() != out.size() || out.empty() ||
      out.size() > 2 * kLanes)
    throw std::invalid_argument(
        "MontCtx::comb_lanes: 1 to 16 scalars and as many outputs");
  if (!lanes_.has_value())
    throw std::logic_error("MontCtx::comb_lanes: no lanes on this context");
#if defined(__x86_64__)
  std::size_t bits = 0;
  for (const Nat& s : scalars) bits = std::max(bits, s.bit_length());
  const std::size_t windows = (bits + w - 1) / w;
  if (bits > 64 * lanes::kCombLimbs || windows > table.size() >> (w + 2))
    return false;
  // The comb runs over the widest scalar's windows (at least one); `exit`
  // = 2^(4 used) R mod m removes the drift of that many products (see
  // fixed_base_lanes). With 4 used = 256a + t, t < 256, it is 2^t R^(a+1):
  // 2^t (below R) times R^2 mod m, a + 1 times, through the kernel.
  const std::size_t used = std::max<std::size_t>(windows, 1);
  Limb x[4] = {}, rr[4];
  x[4 * used % 256 / 64] = Limb{1} << (4 * used % 64);
  rr_.to_limbs(rr, 4);
  for (std::size_t a = 0; a <= 4 * used / 256; ++a) mul_limbs(x, x, rr);
  const auto exit = lanes::to_radix52(x);
  (out.size() > kLanes ? fixed_base_lanes<2> : fixed_base_lanes<1>)(
      *lanes_, m_.limbs().data(), table.data(), w, used, exit,
      scalars.data(), out.size(), out.data());
  return true;
#else
  (void)table;
  (void)w;
  return false;
#endif
}

void MontCtx::inv_many(std::span<const Nat> xs, std::span<Nat> out) const {
  if (xs.size() != out.size())
    throw std::invalid_argument("MontCtx::inv_many: span sizes differ");
  if (out.empty()) return;
  const std::size_t n = out.size();
  with_kernel([&](const auto& kern) {
    // x_i on limbs, then the prefix products x_0 ... x_i, in one buffer.
    std::vector<Limb> buf(2 * n * k_);
    Limb* x = buf.data();
    Limb* pre = x + n * k_;
    for (std::size_t i = 0; i < n; ++i) xs[i].to_limbs(x + i * k_, k_);
    std::copy_n(x, k_, pre);
    for (std::size_t i = 1; i < n; ++i)
      kern(pre + i * k_, pre + (i - 1) * k_, x + i * k_);
    // One binary inversion of the running product (out of and back into
    // Montgomery form), then back-substitute:
    // inv(x_i) = inv(x_0 ... x_i) * (x_0 ... x_{i-1}).
    const auto s =
        invmod(from_mont(Nat::from_limbs({pre + (n - 1) * k_, k_})), m_);
    if (!s.has_value())
      throw std::domain_error("MontCtx::inv_many: element not invertible");
    constexpr std::size_t kCap = std::remove_cvref_t<decltype(kern)>::kCap;
    Limb acc[kCap] = {}, inv[kCap] = {};
    to_mont(*s).to_limbs(acc, k_);
    for (std::size_t i = n; i-- > 1;) {
      kern(inv, acc, pre + (i - 1) * k_);
      out[i] = Nat::from_limbs({inv, k_});
      kern(acc, acc, x + i * k_);
    }
    out[0] = Nat::from_limbs({acc, k_});
  });
}

}  // namespace ppgr::mpz
