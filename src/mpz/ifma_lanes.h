// What both group families' ladders and combs share: the 4-bit window, the
// split of a batch into lane calls and the 8-lane AVX-512 IFMA primitives.
// Internal (mont.cpp and group/), not part of the library's interface.
//
// Eight independent ladders run side by side, one per 64-bit lane of a zmm
// register: a residue is five registers, register j holding radix-2^52 limb
// j of all eight lanes. vpmadd52{lo,hi}uq multiply the low 52 bits of two
// lanes and add the low or high half of the 104-bit product to a 64-bit
// accumulator, so the accumulators absorb the carries until one final
// normalization (Gueron-Krasnov, ARITH 2016).
//
// The product is an almost-Montgomery multiplication (AMM) with R' = 2^260:
// for a, b < 2m it returns a*b/R' mod m, below 2m, since
// (a*b + U*m)/R' < (4m^2 + R'm)/R' < 2m whenever 4m < R' (m < 2^256 here).
// Residues in the lane domain (x*R' mod m, below 2m) are never fully
// reduced inside a ladder. A ladder enters the lane domain from a 64-bit
// Montgomery residue x*2^(64k) (k limbs) by one product with 2^(520-64k)
// mod m, and leaves it by one product with 2^(64k) mod m and one final
// subtraction of m, so its result is the fully reduced residue the scalar
// ladders return.
//
// The squaring asq8 forms the whole 10-column square first (each cross
// product a_i*a_j, i < j, once, then every column doubled and the five
// squares a_i^2 added) and then runs the five word-by-word reduction steps:
// 85 vpmadd52 where amm8(a, a) issues 105. Its bound is amm8's with b = a:
// a^2 < 4m^2, so (a^2 + U*m)/R' < 2m. It returns amm8(a, a) exactly, not
// only modulo m: reduction step i picks u_i from the low 52 bits of
// (a^2 + sum_{k<i} u_k*m*2^(52k)) / 2^(52i), which is the same integer
// whether the partial products are added before the reduction (asq8) or
// interleaved with it (amm8), so both add the same U*m. The column
// accumulators stay below 2^57: before the reduction a column holds at
// most four doubled 52-bit halves of cross products and one half of a
// square (below 9 * 2^52), and the reduction adds at most ten 52-bit
// halves and a small carry.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "mpz/mont.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ppgr::mpz::lanes {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kLimbs52 = 5;
constexpr Limb kMask52 = (Limb{1} << 52) - 1;

/// The variable-base ladders' (scalar and lane) fixed window: 4 bits, so a
/// digit table holds 16 powers.
constexpr std::size_t kWindow = 4;
constexpr std::size_t kDigits = std::size_t{1} << kWindow;

/// The 4-bit digit of e at bit offset pos; offsets are multiples of 4, so a
/// digit never straddles a limb.
inline unsigned nibble(const Nat& e, std::size_t pos) {
  return static_cast<unsigned>(e.limb(pos / 64) >> (pos % 64)) & 0xFu;
}

/// The fewest elements a lane call's last batch holds when it is padded to
/// eight lanes rather than left to the scalar path: a padded batch costs a
/// full one, and two scalar calls cost more on both families (DESIGN.md
/// Sec. 5e).
constexpr std::size_t kPadFrom = 2;

/// The lane calls over a batch of n elements, the one rule of both
/// families: up to 16 elements (two batches of eight) per call, and a
/// call's last batch padded to eight lanes when it holds at least kPadFrom
/// elements; a shorter remainder goes to the scalar path. So 35 elements
/// run as two pairs and a padded batch of 3, and 59 as three pairs and a
/// pair padded from 11. lanes.template operator()<B>(i, count) runs one
/// call over elements [i, i + count) in B batches and returns false when
/// they must rerun on the scalar path; scalar(j) sets element j there, as
/// it does for the tail. Returns the elements the lanes set.
template <class LaneCall, class ScalarCall>
std::size_t split_lanes(std::size_t n, const LaneCall& lanes,
                        const ScalarCall& scalar) {
  std::size_t i = 0, set = 0;
  for (;;) {
    std::size_t count = std::min(n - i, 2 * kLanes);
    if (count % kLanes < kPadFrom) count -= count % kLanes;
    if (count == 0) break;
    const bool ok = count > kLanes ? lanes.template operator()<2>(i, count)
                                   : lanes.template operator()<1>(i, count);
    if (ok) set += count;
    else
      for (std::size_t j = i; j < i + count; ++j) scalar(j);
    i += count;
  }
  for (; i < n; ++i) scalar(i);
  return set;
}

/// x < 2^256, given as four 64-bit limbs, as five 52-bit limbs.
inline std::array<Limb, kLimbs52> to_radix52(const Limb* l) {
  return {l[0] & kMask52, ((l[0] >> 52) | (l[1] << 12)) & kMask52,
          ((l[1] >> 40) | (l[2] << 24)) & kMask52,
          ((l[2] >> 28) | (l[3] << 36)) & kMask52, l[3] >> 16};
}

/// x < 2^256 as five 52-bit limbs.
inline std::array<Limb, kLimbs52> to_radix52(const Nat& x) {
  Limb l[4];
  x.to_limbs(l, 4);
  return to_radix52(l);
}

/// The lane-domain value r < 2m (five 52-bit limbs) fully reduced to four
/// 64-bit limbs: r - m unless that borrows, else r. m64 is m on four limbs,
/// zero-padded.
inline void from_radix52(Limb* out, const Limb* r, const Limb* m64) {
  const Limb x[5] = {r[0] | (r[1] << 52), (r[1] >> 12) | (r[2] << 40),
                     (r[2] >> 24) | (r[3] << 28), (r[3] >> 36) | (r[4] << 16),
                     r[4] >> 48};
  Limb d[4] = {};
  Limb borrow = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    const unsigned __int128 t =
        static_cast<unsigned __int128>(x[j]) - m64[j] - borrow;
    d[j] = static_cast<Limb>(t);
    borrow = static_cast<Limb>(t >> 64) & 1;
  }
  const Limb* keep = x[4] >= borrow ? d : x;
  for (std::size_t j = 0; j < 4; ++j) out[j] = keep[j];
}

/// The lane constants of the odd modulus m < 2^256 for Montgomery residues
/// on k <= 4 limbs, given r_mod_m = 2^(64k) mod m: one = 2^260, to_lane =
/// 2^(520-64k) and from_lane = 2^(64k), all mod m, found by modular
/// doublings (no division). Defined in mont.cpp.
[[nodiscard]] LaneConsts lane_consts(const Nat& m, const Nat& r_mod_m,
                                     std::size_t k);

/// True when this CPU supports AVX-512F and AVX-512 IFMA (libgcc reports
/// them only when the OS saves the zmm state), i.e. can run the lanes.
inline bool cpu_has_avx512ifma() {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512ifma");
  }();
  return has;
#else
  return false;
#endif
}

#if defined(__x86_64__)
// Compiled for AVX-512 IFMA without a global -m flag: lane code runs only
// after cpu_has_avx512ifma(), so the binary still runs on any x86-64 CPU.
#define PPGR_IFMA __attribute__((target("avx512f,avx512ifma")))
#define PPGR_IFMA_INLINE \
  __attribute__((target("avx512f,avx512ifma"), always_inline)) inline

/// One residue per lane: l[j] holds 52-bit limb j of all eight lanes.
struct Lane5 {
  __m512i l[kLimbs52];
};

/// AMM over all eight lanes: out = a*b/2^260 mod m, below 2m, with 52-bit
/// limbs, for a, b < 2m with 52-bit limbs. `out` may alias a or b.
PPGR_IFMA_INLINE void amm8(Lane5& out, const Lane5& a, const Lane5& b,
                           const Lane5& m, __m512i k0) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i t[kLimbs52 + 1] = {zero, zero, zero, zero, zero, zero};
#pragma GCC unroll 5
  for (std::size_t i = 0; i < kLimbs52; ++i) {
    const __m512i ai = a.l[i];
    // t += a_i * b; u = t_0 * k0 mod 2^52 (madd52lo of a zero accumulator
    // is already below 2^52).
    t[0] = _mm512_madd52lo_epu64(t[0], ai, b.l[0]);
    const __m512i u = _mm512_madd52lo_epu64(zero, t[0], k0);
    t[1] = _mm512_madd52hi_epu64(t[1], ai, b.l[0]);
#pragma GCC unroll 5
    for (std::size_t j = 1; j < kLimbs52; ++j) {
      t[j] = _mm512_madd52lo_epu64(t[j], ai, b.l[j]);
      t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], ai, b.l[j]);
    }
    // t += u * m, which clears t_0's low 52 bits; then t >>= 52.
#pragma GCC unroll 5
    for (std::size_t j = 0; j < kLimbs52; ++j) {
      t[j] = _mm512_madd52lo_epu64(t[j], u, m.l[j]);
      t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], u, m.l[j]);
    }
    t[1] = _mm512_add_epi64(t[1], _mm512_srli_epi64(t[0], 52));
#pragma GCC unroll 5
    for (std::size_t j = 0; j < kLimbs52; ++j) t[j] = t[j + 1];
    t[kLimbs52] = zero;
  }
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
#pragma GCC unroll 5
  for (std::size_t j = 0; j + 1 < kLimbs52; ++j) {
    t[j + 1] = _mm512_add_epi64(t[j + 1], _mm512_srli_epi64(t[j], 52));
    out.l[j] = _mm512_and_si512(t[j], mask);
  }
  out.l[kLimbs52 - 1] = t[kLimbs52 - 1];
}

/// AMM squaring over all eight lanes: out = amm8(a, a), bit for bit (see
/// above), in 85 vpmadd52 instead of 105. `out` may alias a.
PPGR_IFMA_INLINE void asq8(Lane5& out, const Lane5& a, const Lane5& m,
                           __m512i k0) {
  const __m512i zero = _mm512_setzero_si512();
  // t[c] accumulates column c (weight 2^(52c)) of the square.
  __m512i t[2 * kLimbs52];
#pragma GCC unroll 10
  for (std::size_t c = 0; c < 2 * kLimbs52; ++c) t[c] = zero;
#pragma GCC unroll 5
  for (std::size_t i = 0; i < kLimbs52; ++i)
#pragma GCC unroll 5
    for (std::size_t j = i + 1; j < kLimbs52; ++j) {
      t[i + j] = _mm512_madd52lo_epu64(t[i + j], a.l[i], a.l[j]);
      t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], a.l[i], a.l[j]);
    }
  // Columns 0 and 9 hold no cross product.
#pragma GCC unroll 8
  for (std::size_t c = 1; c + 1 < 2 * kLimbs52; ++c)
    t[c] = _mm512_add_epi64(t[c], t[c]);
#pragma GCC unroll 5
  for (std::size_t i = 0; i < kLimbs52; ++i) {
    t[2 * i] = _mm512_madd52lo_epu64(t[2 * i], a.l[i], a.l[i]);
    t[2 * i + 1] = _mm512_madd52hi_epu64(t[2 * i + 1], a.l[i], a.l[i]);
  }
  // Step i: u = t_i * k0 mod 2^52, t += u * m * 2^(52i), which clears
  // t_i's low 52 bits; its high bits carry into t_(i+1).
#pragma GCC unroll 5
  for (std::size_t i = 0; i < kLimbs52; ++i) {
    const __m512i u = _mm512_madd52lo_epu64(zero, t[i], k0);
#pragma GCC unroll 5
    for (std::size_t j = 0; j < kLimbs52; ++j) {
      t[i + j] = _mm512_madd52lo_epu64(t[i + j], u, m.l[j]);
      t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], u, m.l[j]);
    }
    t[i + 1] = _mm512_add_epi64(t[i + 1], _mm512_srli_epi64(t[i], 52));
  }
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
#pragma GCC unroll 5
  for (std::size_t j = 0; j + 1 < kLimbs52; ++j) {
    t[kLimbs52 + j + 1] =
        _mm512_add_epi64(t[kLimbs52 + j + 1],
                         _mm512_srli_epi64(t[kLimbs52 + j], 52));
    out.l[j] = _mm512_and_si512(t[kLimbs52 + j], mask);
  }
  out.l[kLimbs52 - 1] = t[2 * kLimbs52 - 1];
}

/// Eight values below 2^256, given as their four 64-bit limbs (x[j] holds
/// limb j of every lane; a gathered table entry), as five 52-bit limbs:
/// to_radix52 lane-wise.
PPGR_IFMA_INLINE Lane5 radix52(const __m512i (&x)[4]) {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  Lane5 v;
  v.l[0] = _mm512_and_si512(x[0], mask);
  v.l[1] = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(x[0], 52), _mm512_slli_epi64(x[1], 12)),
      mask);
  v.l[2] = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(x[1], 40), _mm512_slli_epi64(x[2], 24)),
      mask);
  v.l[3] = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(x[2], 28), _mm512_slli_epi64(x[3], 36)),
      mask);
  v.l[4] = _mm512_srli_epi64(x[3], 16);
  return v;
}

/// Widest scalar of the lane combs, in 64-bit limbs (512 bits).
constexpr std::size_t kCombLimbs = 8;

/// The comb digits of window k for eight scalars: bits [k*w, k*w + w) of
/// each lane, where s[j] holds limb j of every lane's scalar and s[8] is
/// zero (a digit may straddle limbs j and j + 1 when w does not divide 64).
/// Requires k*w < 512.
PPGR_IFMA_INLINE __m512i comb_digits(const __m512i (&s)[kCombLimbs + 1],
                                     std::size_t k, std::size_t w) {
  const std::size_t pos = k * w, j = pos / 64, shift = pos % 64;
  const auto count = [](std::size_t c) {
    return _mm_cvtsi64_si128(static_cast<long long>(c));
  };
  __m512i d = _mm512_srl_epi64(s[j], count(shift));
  if (shift + w > 64)
    d = _mm512_or_si512(d, _mm512_sll_epi64(s[j + 1], count(64 - shift)));
  return _mm512_and_si512(
      d, _mm512_set1_epi64(static_cast<long long>((Limb{1} << w) - 1)));
}

/// Eight scalars below 2^512 as comb_digits' operand: limb j of
/// scalars[l] in lane l of s[j], s[8] zero. Only the first `count` lanes
/// read a scalar; the others are zero.
PPGR_IFMA_INLINE void load_scalars(__m512i (&s)[kCombLimbs + 1],
                                   const Nat* scalars, std::size_t count) {
  alignas(64) Limb t[kCombLimbs + 1][kLanes] = {};
  for (std::size_t l = 0; l < count; ++l) {
    Limb x[kCombLimbs];
    scalars[l].to_limbs(x, kCombLimbs);
    for (std::size_t j = 0; j < kCombLimbs; ++j) t[j][l] = x[j];
  }
  for (std::size_t j = 0; j <= kCombLimbs; ++j) s[j] = _mm512_load_si512(t[j]);
}

/// x in all eight lanes.
PPGR_IFMA_INLINE Lane5 broadcast(const std::array<Limb, kLimbs52>& x) {
  Lane5 v;
  for (std::size_t j = 0; j < kLimbs52; ++j)
    v.l[j] = _mm512_set1_epi64(static_cast<long long>(x[j]));
  return v;
}

/// One residue per lane, in memory: [limb][lane].
using LaneTable = Limb[kLimbs52][kLanes];

PPGR_IFMA_INLINE void store5(LaneTable& dst, const Lane5& v) {
  for (std::size_t j = 0; j < kLimbs52; ++j) _mm512_store_si512(dst[j], v.l[j]);
}

PPGR_IFMA_INLINE Lane5 load5(const LaneTable& src) {
  Lane5 v;
  for (std::size_t j = 0; j < kLimbs52; ++j) v.l[j] = _mm512_load_si512(src[j]);
  return v;
}
#endif  // __x86_64__

}  // namespace ppgr::mpz::lanes
