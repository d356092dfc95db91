#include "group/ec_group.h"

#include <algorithm>
#include <stdexcept>

#include "mpz/ifma_lanes.h"
#include "runtime/metrics.h"

namespace ppgr::group {

namespace {

using mpz::Limb;
using mpz::lanes::kDigits;
using mpz::lanes::kWindow;
using mpz::lanes::nibble;

// ---- 8-lane batch ladders: AVX-512 IFMA, fields below 2^256 ----
//
// Eight independent Straus ladders run side by side on mpz/ifma_lanes.h's
// lane arithmetic: every coordinate is a radix-2^52 residue in the lane
// domain, below 2p (Z, and the sums that only products read, below 4p),
// and products are amm8's and asq8's almost-Montgomery products. The
// schedule is EcGroup::straus's (4-bit windows, a digit table per base,
// one shared run of doublings) with the same doubling and addition
// formulas, so each lane computes the scalar ladder's field values and
// its result, fully reduced at exit, is the same Jacobian triple. The
// scalar ladder's branches become per-lane masks:
//  - the identity accumulator: a lane whose accumulator is the identity
//    ignores doublings and takes its first nonzero digit's entry as is;
//  - a zero digit leaves the lane's accumulator as it is;
//  - an identity base is replaced by a finite stand-in whose digits are
//    all zero, which is what skipping it amounts to;
//  - an addition of P and -P (H = U2 - U1 = 0 mod p, R = S2 - S1 not)
//    makes the lane's accumulator the identity, as the scalar add does.
//    A hop that finishes decrypting an encryption of zero ends in exactly
//    this addition.
// The branches that do not become masks are an addition of P and P
// (H = R = 0 mod p), where the scalar ladder doubles instead, and a
// doubling of a point of order 2 (Y = 0 mod p), where it returns the
// identity: a call in which any lane meets one returns false, and the
// caller reruns all its elements on the scalar ladder. So does a digit
// table whose building meets H = 0 or Y = 0. On a curve of prime order
// above 15 (the NIST curves) only the addition of P and P can occur.
//
// Every formula runs on B batches of eight lanes at once (B = 1 or 2), one
// field step for batch 0 and then for batch 1, so each amm8 has an
// independent twin beside it and the multiplier does not wait on vpmadd52
// latency (Drucker-Gueron 2019), as MontCtx's ladders do. A lane mask
// covers all B batches: bit 8b + l is lane l of batch b.

using mpz::lanes::kLanes;
using mpz::lanes::kLimbs52;

// What the lane ladders read of the curve, on plain limbs.
struct LaneArgs {
  const mpz::LaneConsts& consts;
  const Limb* p64;        // p on four limbs, zero-padded
  const Limb* a_mont;     // the coefficient a in Montgomery form, four limbs
  bool a_is_minus3;
  const Elem& stand_in;   // a finite point that replaces identity bases
  std::size_t k;          // limbs of the field
};

constexpr Nat Elem::* kElemCoords[3] = {&Elem::a, &Elem::b, &Elem::c};

#if defined(__x86_64__)
#pragma GCC diagnostic push
// GCC 12 flags the deliberate self-initialization in _mm512_undefined_epi32,
// which the gather and shift intrinsics use, as (maybe-)uninitialized (GCC
// bug 105593).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

using mpz::lanes::amm8;
using mpz::lanes::broadcast;
using mpz::lanes::Lane5;
using mpz::lanes::LaneTable;
using mpz::lanes::load5;
using mpz::lanes::store5;

// Lane l of batch b: bit 8b + l.
using Mask = unsigned;
template <std::size_t B>
constexpr Mask kAllLanes = (Mask{1} << (kLanes * B)) - 1;

PPGR_IFMA_INLINE __mmask8 batch_mask(Mask m, std::size_t b) {
  return static_cast<__mmask8>(m >> (kLanes * b));
}

// One residue per lane of B batches.
template <std::size_t B>
struct Lanes {
  Lane5 v[B];
};

// A Jacobian point per lane.
template <std::size_t B>
struct LanePoint {
  Lanes<B> x, y, z;
};
template <std::size_t B>
constexpr Lanes<B> LanePoint<B>::* kLaneCoords[3] = {
    &LanePoint<B>::x, &LanePoint<B>::y, &LanePoint<B>::z};
// One point per lane of one batch, in memory: [coordinate][limb][lane].
using PointTable = LaneTable[3];

// The field as the lanes see it.
struct LaneField {
  Lane5 p;
  Lane5 two_p;  // 2p limb by limb (not normalized: limbs up to 2^53)
  Lanes<2> p_times;  // 2p and 3p on 52-bit limbs
  __m512i k0;
  Lane5 a;      // the coefficient a in the lane domain (general-a doubling)
  bool a_is_minus3;
};

template <std::size_t B>
PPGR_IFMA_INLINE Lanes<B> splat(const Lane5& x) {
  Lanes<B> v;
  for (std::size_t b = 0; b < B; ++b) v.v[b] = x;
  return v;
}

template <std::size_t B>
PPGR_IFMA_INLINE void fmul(Lanes<B>& out, const Lanes<B>& a,
                           const Lanes<B>& b, const LaneField& f) {
  for (std::size_t i = 0; i < B; ++i) amm8(out.v[i], a.v[i], b.v[i], f.p, f.k0);
}

// fmul(out, a, a, f) bit for bit, through the lane squaring.
template <std::size_t B>
PPGR_IFMA_INLINE void fsqr(Lanes<B>& out, const Lanes<B>& a,
                           const LaneField& f) {
  for (std::size_t i = 0; i < B; ++i)
    mpz::lanes::asq8(out.v[i], a.v[i], f.p, f.k0);
}

// s holds a value in [0, 4p) on limbs that may exceed 52 bits or be
// negative; out = s or s - 2p, whichever lies in [0, 2p), on 52-bit limbs.
// Both candidates are normalized by arithmetic-shift carry chains, and the
// sign of s - 2p picks one per lane.
PPGR_IFMA_INLINE void below_2p(Lane5& out, const Lane5& s,
                               const LaneField& f) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i mask =
      _mm512_set1_epi64(static_cast<long long>(mpz::lanes::kMask52));
  Lane5 keep, sub;
  __m512i ck = zero, cs = zero;
  for (std::size_t j = 0; j < kLimbs52; ++j) {
    const __m512i v = _mm512_add_epi64(s.l[j], ck);
    const __m512i w =
        _mm512_add_epi64(_mm512_sub_epi64(s.l[j], f.two_p.l[j]), cs);
    if (j + 1 < kLimbs52) {
      ck = _mm512_srai_epi64(v, 52);
      cs = _mm512_srai_epi64(w, 52);
      keep.l[j] = _mm512_and_si512(v, mask);
      sub.l[j] = _mm512_and_si512(w, mask);
    } else {
      keep.l[j] = v;
      sub.l[j] = w;
    }
  }
  const __mmask8 negative = _mm512_cmplt_epi64_mask(sub.l[kLimbs52 - 1], zero);
  for (std::size_t j = 0; j < kLimbs52; ++j)
    out.l[j] = _mm512_mask_blend_epi64(negative, sub.l[j], keep.l[j]);
}

// out = a + b and out = a - b mod p, for a, b < 2p; results below 2p.
template <std::size_t B>
PPGR_IFMA_INLINE void fadd(Lanes<B>& out, const Lanes<B>& a,
                           const Lanes<B>& b, const LaneField& f) {
  for (std::size_t i = 0; i < B; ++i) {
    Lane5 s;
    for (std::size_t j = 0; j < kLimbs52; ++j)
      s.l[j] = _mm512_add_epi64(a.v[i].l[j], b.v[i].l[j]);
    below_2p(out.v[i], s, f);
  }
}

template <std::size_t B>
PPGR_IFMA_INLINE void fsub(Lanes<B>& out, const Lanes<B>& a,
                           const Lanes<B>& b, const LaneField& f) {
  for (std::size_t i = 0; i < B; ++i) {
    Lane5 s;
    for (std::size_t j = 0; j < kLimbs52; ++j)
      s.l[j] = _mm512_add_epi64(_mm512_sub_epi64(a.v[i].l[j], b.v[i].l[j]),
                                f.two_p.l[j]);
    below_2p(out.v[i], s, f);
  }
}

// The same sums and differences left below 4p (normalized to 52-bit limbs,
// not reduced), for values that feed only products: amm8 and asq8 take
// operands below 4p to a result below 2p, since 16p < 2^260.
template <std::size_t B>
PPGR_IFMA_INLINE void normalize(Lanes<B>& out, const Lane5 (&s)[B]) {
  const __m512i mask =
      _mm512_set1_epi64(static_cast<long long>(mpz::lanes::kMask52));
  for (std::size_t i = 0; i < B; ++i) {
    __m512i c = _mm512_setzero_si512();
    for (std::size_t j = 0; j + 1 < kLimbs52; ++j) {
      const __m512i v = _mm512_add_epi64(s[i].l[j], c);
      c = _mm512_srai_epi64(v, 52);
      out.v[i].l[j] = _mm512_and_si512(v, mask);
    }
    out.v[i].l[kLimbs52 - 1] = _mm512_add_epi64(s[i].l[kLimbs52 - 1], c);
  }
}

template <std::size_t B>
PPGR_IFMA_INLINE void fadd_lazy(Lanes<B>& out, const Lanes<B>& a,
                                const Lanes<B>& b) {
  Lane5 s[B];
  for (std::size_t i = 0; i < B; ++i)
    for (std::size_t j = 0; j < kLimbs52; ++j)
      s[i].l[j] = _mm512_add_epi64(a.v[i].l[j], b.v[i].l[j]);
  normalize(out, s);
}

template <std::size_t B>
PPGR_IFMA_INLINE void fsub_lazy(Lanes<B>& out, const Lanes<B>& a,
                                const Lanes<B>& b, const LaneField& f) {
  Lane5 s[B];
  for (std::size_t i = 0; i < B; ++i)
    for (std::size_t j = 0; j < kLimbs52; ++j)
      s[i].l[j] = _mm512_add_epi64(_mm512_sub_epi64(a.v[i].l[j], b.v[i].l[j]),
                                   f.two_p.l[j]);
  normalize(out, s);
}

// The lanes where h (below 4p, 52-bit limbs) is 0 mod p: h is 0, p, 2p or
// 3p.
template <std::size_t B>
PPGR_IFMA_INLINE Mask zero_mod_p(const Lanes<B>& h, const LaneField& f) {
  const __m512i zero = _mm512_setzero_si512();
  Mask out = 0;
  for (std::size_t b = 0; b < B; ++b) {
    __mmask8 is_zero = 0xFF, is_p = 0xFF, is_2p = 0xFF, is_3p = 0xFF;
    for (std::size_t j = 0; j < kLimbs52; ++j) {
      const __m512i x = h.v[b].l[j];
      is_zero &= _mm512_cmpeq_epi64_mask(x, zero);
      is_p &= _mm512_cmpeq_epi64_mask(x, f.p.l[j]);
      is_2p &= _mm512_cmpeq_epi64_mask(x, f.p_times.v[0].l[j]);
      is_3p &= _mm512_cmpeq_epi64_mask(x, f.p_times.v[1].l[j]);
    }
    out |= Mask{static_cast<__mmask8>(is_zero | is_p | is_2p | is_3p)}
           << (kLanes * b);
  }
  return out;
}

// EcGroup::dbl's formulas in every lane, for finite points; returns the
// lanes whose Y is 0 mod p (a point of order 2, which the scalar doubling
// sends to the identity), where `out` is not 2P. `out` may alias pt. The
// products are the scalar doubling's, with the small factors moved into
// them where that saves a reduction (S = 4XY^2 as (2X)(2Y^2), 8Y^4 as
// 2(2Y^2)^2): the same residues mod p, so the same triple at exit. X3 and
// Y3 leave below 2p; Z3 = 2YZ below 4p, which only products read.
template <std::size_t B>
PPGR_IFMA Mask lane_dbl(LanePoint<B>& out, const LanePoint<B>& pt,
                        const LaneField& f) {
  const Mask order2 = zero_mod_p(pt.y, f);
  Lanes<B> zz, yy, m, s, t, x3, z3;
  fsqr(zz, pt.z, f);
  fsqr(yy, pt.y, f);
  if (f.a_is_minus3) {
    fsub_lazy(t, pt.x, zz, f);
    fadd_lazy(m, pt.x, zz);
    fmul(m, m, t, f);
  } else {
    fsqr(m, pt.x, f);
    fsqr(t, zz, f);
    fmul(t, t, splat<B>(f.a), f);
  }
  fadd(s, m, m, f);
  if (f.a_is_minus3) {
    fadd_lazy(m, s, m);
  } else {
    fadd(m, s, m, f);
    fadd_lazy(m, m, t);
  }
  fadd_lazy(s, pt.x, pt.x);
  fadd_lazy(yy, yy, yy);
  fmul(s, s, yy, f);  // S = (2X)(2Y^2)
  fmul(z3, pt.y, pt.z, f);
  fadd_lazy(z3, z3, z3);
  fsqr(x3, m, f);
  fsub(x3, x3, s, f);
  fsub(x3, x3, s, f);
  fsub_lazy(t, s, x3, f);
  fmul(t, m, t, f);
  fsqr(yy, yy, f);  // (2Y^2)^2 = 4Y^4
  fadd(yy, yy, yy, f);
  fsub(out.y, t, yy, f);
  out.x = x3;
  out.z = z3;
  return order2;
}

// The lanes of an addition whose operands are the same point up to sign:
// H = U2 - U1 is 0 mod p in `same_x`; R = S2 - S1 is also 0 in `same_y`
// (P = Q), not (P = -Q). The formulas' output in those lanes is not P + Q.
struct Exceptions {
  Mask same_x, same_y;
};

// EcGroup::add's formulas in every lane, for finite points: the general
// ones (16 products), or with kAffineQ, for q with Z = 1, its mixed
// addition (11 products; the same residues, since the skipped products
// multiply by one). `out` may alias p or q.
template <bool kAffineQ, std::size_t B>
PPGR_IFMA Exceptions lane_add(LanePoint<B>& out, const LanePoint<B>& p,
                              const LanePoint<B>& q, const LaneField& f) {
  Lanes<B> u1, u2, s1, s2, t, h, r, hh, hhh, v, x3, z3;
  if constexpr (kAffineQ) {
    u1 = p.x;
    s1 = p.y;
  } else {
    fsqr(t, q.z, f);
    fmul(u1, p.x, t, f);
    fmul(t, t, q.z, f);
    fmul(s1, p.y, t, f);
  }
  fsqr(t, p.z, f);
  fmul(u2, q.x, t, f);
  fmul(t, t, p.z, f);
  fmul(s2, q.y, t, f);
  fsub_lazy(h, u2, u1, f);
  fsub_lazy(r, s2, s1, f);
  const Exceptions exceptional{zero_mod_p(h, f), zero_mod_p(r, f)};
  fsqr(hh, h, f);
  fmul(hhh, hh, h, f);
  fmul(v, u1, hh, f);
  if constexpr (kAffineQ) {
    fmul(z3, p.z, h, f);
  } else {
    fmul(t, p.z, q.z, f);
    fmul(z3, t, h, f);
  }
  fsqr(x3, r, f);
  fsub(x3, x3, hhh, f);
  fsub(x3, x3, v, f);
  fsub(x3, x3, v, f);
  fsub_lazy(t, v, x3, f);
  fmul(t, r, t, f);
  fmul(s1, s1, hhh, f);
  fsub(out.y, t, s1, f);
  out.x = x3;
  out.z = z3;
  return exceptional;
}

// acc = v in the lanes of k.
template <std::size_t B>
PPGR_IFMA_INLINE void blend(LanePoint<B>& acc, Mask k,
                            const LanePoint<B>& v) {
  for (std::size_t b = 0; b < B; ++b) {
    const __mmask8 kb = batch_mask(k, b);
    for (const auto c : kLaneCoords<B>)
      for (std::size_t j = 0; j < kLimbs52; ++j)
        (acc.*c).v[b].l[j] =
            _mm512_mask_blend_epi64(kb, (acc.*c).v[b].l[j], (v.*c).v[b].l[j]);
  }
}

PPGR_IFMA_INLINE LaneField lane_field(const LaneArgs& args) {
  const mpz::LaneConsts& c = args.consts;
  LaneField f{};
  f.p = broadcast(c.m);
  for (std::size_t j = 0; j < kLimbs52; ++j)
    f.two_p.l[j] = _mm512_add_epi64(f.p.l[j], f.p.l[j]);
  Lane5 multiples[2];
  for (std::size_t j = 0; j < kLimbs52; ++j) {
    multiples[0].l[j] = f.two_p.l[j];
    multiples[1].l[j] = _mm512_add_epi64(f.two_p.l[j], f.p.l[j]);
  }
  normalize(f.p_times, multiples);
  f.k0 = _mm512_set1_epi64(static_cast<long long>(c.k0));
  f.a_is_minus3 = args.a_is_minus3;
  if (!f.a_is_minus3)
    amm8(f.a, broadcast(mpz::lanes::to_radix52(args.a_mont)),
         broadcast(c.to_lane), f.p, f.k0);
  return f;
}

// out[i] = lane i's point for i < count: the identity in the lanes of
// acc_inf, else acc taken out of the lane domain and fully reduced. Lanes
// from count on are padding and write nothing.
template <std::size_t B>
PPGR_IFMA void leave_lanes(const LanePoint<B>& acc, Mask acc_inf,
                           const LaneArgs& args, const LaneField& f,
                           std::size_t count, Elem* out) {
  const Lanes<B> from_lane = splat<B>(broadcast(args.consts.from_lane));
  alignas(64) PointTable res[B];
  for (std::size_t k = 0; k < 3; ++k) {
    Lanes<B> v;
    fmul(v, acc.*kLaneCoords<B>[k], from_lane, f);
    for (std::size_t b = 0; b < B; ++b) store5(res[b][k], v.v[b]);
  }
  for (std::size_t i = 0; i < count; ++i) {
    if ((acc_inf >> i & 1) != 0) {
      out[i] = Elem{.infinity = true};
      continue;
    }
    const std::size_t b = i / kLanes, l = i % kLanes;
    Elem e;
    for (std::size_t k = 0; k < 3; ++k) {
      const Limb r[kLimbs52] = {res[b][k][0][l], res[b][k][1][l],
                                res[b][k][2][l], res[b][k][3][l],
                                res[b][k][4][l]};
      Limb x[4] = {};
      mpz::lanes::from_radix52(x, r, args.p64);
      e.*kElemCoords[k] = Nat::from_limbs({x, args.k});
    }
    out[i] = std::move(e);
  }
}

// acc = acc + q in the lanes of `active` (q's lanes there are finite), as
// the scalar ladder adds: a lane whose accumulator is the identity takes q
// as it is, an addition of P and -P leaves the identity. Returns false when
// an adding lane met P + P.
template <bool kAffineQ, std::size_t B>
PPGR_IFMA_INLINE bool add_into(LanePoint<B>& acc, Mask& acc_inf, Mask active,
                               const LanePoint<B>& q, const LaneField& f) {
  const Mask adding = active & ~acc_inf;
  Mask cancelled = 0;
  if (adding != 0) {
    LanePoint<B> sum;
    const Exceptions ex = lane_add<kAffineQ>(sum, acc, q, f);
    if ((ex.same_x & ex.same_y & adding) != 0) return false;  // P = Q
    cancelled = ex.same_x & adding;  // P = -Q: the identity
    blend(acc, adding & ~cancelled, sum);
  }
  blend(acc, active & acc_inf, q);
  acc_inf = (acc_inf & ~active) | cancelled;
  return true;
}

// table[b][i][d] = batch b's lanes of pt.
template <std::size_t N, std::size_t B>
PPGR_IFMA_INLINE void store_entry(PointTable (&table)[B][N][kDigits],
                                  std::size_t i, std::size_t d,
                                  const LanePoint<B>& pt) {
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t k = 0; k < 3; ++k)
      store5(table[b][i][d][k], (pt.*kLaneCoords<B>[k]).v[b]);
}

// B batches of eight ladders: lane i (bit i of the masks, batch i / 8) sets
// out[i] to the product over the N terms of bases[i]^exps[i], where
// bases[t] and exps[t] point at the call's consecutive values; the same
// Elem EcGroup::straus returns. Only the first `count` lanes (more than
// 8(B - 1)) read an input or write out[i]; the rest are padding, with the
// identity as base (the stand-in with live = 0). Every input is read before out is written.
// Returns false, with out untouched, when a lane of any batch met an
// addition of a point and itself or a doubling of a point of order 2.
template <std::size_t N, std::size_t B>
PPGR_IFMA bool straus_lanes(const LaneArgs& args,
                            const std::array<const Elem*, N>& bases,
                            const std::array<const Nat*, N>& exps,
                            std::size_t count, Elem* out) {
  const LaneField f = lane_field(args);
  const Lanes<B> to_lane = splat<B>(broadcast(args.consts.to_lane));

  // table[b][i][d]: bases[i]^d in every lane of batch b, for digits
  // d = 1..15 (entry 0 is not used). live[i]: the lanes whose bases[i] is
  // finite.
  alignas(64) PointTable table[B][N][kDigits];
  std::array<Mask, N> live{};
  std::size_t bits = 0;
  for (std::size_t i = 0; i < N; ++i) {
    LanePoint<B> base;
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::size_t lane = b * kLanes + l;
        const bool finite = lane < count && !bases[i][lane].infinity;
        if (finite) {
          live[i] |= Mask{1} << lane;
          bits = std::max(bits, exps[i][lane].bit_length());
        }
        const Elem& pt = finite ? bases[i][lane] : args.stand_in;
        for (std::size_t k = 0; k < 3; ++k) {
          const auto x = mpz::lanes::to_radix52(pt.*kElemCoords[k]);
          for (std::size_t j = 0; j < kLimbs52; ++j)
            table[b][i][1][k][j][l] = x[j];
        }
      }
      for (std::size_t k = 0; k < 3; ++k)
        (base.*kLaneCoords<B>[k]).v[b] = load5(table[b][i][1][k]);
    }
    for (const auto c : kLaneCoords<B>) fmul(base.*c, base.*c, to_lane, f);
    store_entry(table, i, 1, base);
    LanePoint<B> pd;
    if (lane_dbl(pd, base, f) != 0) return false;
    store_entry(table, i, 2, pd);
    for (std::size_t d = 3; d < kDigits; ++d) {
      if (lane_add<false>(pd, pd, base, f).same_x != 0) return false;
      store_entry(table, i, d, pd);
    }
  }

  LanePoint<B> acc{};
  Mask acc_inf = kAllLanes<B>;  // lanes whose accumulator is the identity
  for (std::size_t w = (bits + kWindow - 1) / kWindow; w-- > 0;) {
    if (acc_inf != kAllLanes<B>) {
      Mask order2 = 0;
      for (std::size_t s = 0; s < kWindow; ++s) order2 |= lane_dbl(acc, acc, f);
      if ((order2 & ~acc_inf) != 0) return false;
    }
    for (std::size_t i = 0; i < N; ++i) {
      // Lane l's entry for digit d starts d * sizeof(PointTable) + l limbs
      // into table[b][i]; a zero digit reads entry 1 and is masked off.
      Mask active = 0;
      __m512i idx[B];
      for (std::size_t b = 0; b < B; ++b) {
        alignas(64) Limb offset[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::size_t lane = b * kLanes + l;
          const unsigned d = (live[i] >> lane & 1) != 0
                                 ? nibble(exps[i][lane], w * kWindow)
                                 : 0;
          if (d != 0) active |= Mask{1} << lane;
          offset[l] = std::max(d, 1u) * 3 * kLimbs52 * kLanes + l;
        }
        idx[b] = _mm512_load_si512(offset);
      }
      if (active == 0) continue;
      LanePoint<B> q;
      for (std::size_t b = 0; b < B; ++b)
        for (std::size_t k = 0; k < 3; ++k)
          for (std::size_t j = 0; j < kLimbs52; ++j)
            (q.*kLaneCoords<B>[k]).v[b].l[j] =
                _mm512_i64gather_epi64(idx[b], table[b][i][0][k][j], 8);
      if (!add_into<false>(acc, acc_inf, active, q, f)) return false;
    }
  }
  leave_lanes(acc, acc_inf, args, f, count, out);
  return true;
}

// B batches of eight fixed-base combs: lane i sets out[i] to the product of
// the table entries of scalars[i]'s w-bit digits, over the windows of the
// call's widest scalar, the same Elem EcGroup::comb returns. Only the first
// `count` lanes (more than 8(B - 1)) read a scalar or write out[i]; the
// rest are padding with a zero scalar, so no digit of theirs is ever
// active. The table is
// EcGroup::pack_table's: per entry the affine x then y on four limbs,
// Montgomery form, all zeros for the identity. Each window gathers every
// lane's entry, takes it into the lane domain (two products) and adds it
// with the mixed addition in the lanes whose digit and entry are nonzero.
// Returns false, with out untouched, when a scalar is wider than 512 bits or
// than the table's `windows` windows cover, or when a lane met an addition
// of a point and itself.
template <std::size_t B>
PPGR_IFMA bool comb_lanes(const LaneArgs& args, const Limb* table,
                          std::size_t w, std::size_t windows,
                          const Nat* scalars, std::size_t count, Elem* out) {
  const LaneField f = lane_field(args);
  const Lanes<B> to_lane = splat<B>(broadcast(args.consts.to_lane));
  __m512i s[B][mpz::lanes::kCombLimbs + 1];
  for (std::size_t b = 0; b < B; ++b)
    mpz::lanes::load_scalars(s[b], scalars + b * kLanes,
                             std::min(count - b * kLanes, kLanes));
  std::size_t bits = 0;
  for (std::size_t i = 0; i < count; ++i)
    bits = std::max(bits, scalars[i].bit_length());
  if (bits > 64 * mpz::lanes::kCombLimbs || (bits + w - 1) / w > windows)
    return false;
  LanePoint<B> acc{}, q;
  q.z = splat<B>(broadcast(args.consts.one));
  Mask acc_inf = kAllLanes<B>;
  const __m512i zero = _mm512_setzero_si512();
  for (std::size_t k = 0; k < (bits + w - 1) / w; ++k) {
    const __m512i row = _mm512_set1_epi64(static_cast<long long>(k << w));
    __m512i d[B];
    Mask active = 0;
    for (std::size_t b = 0; b < B; ++b) {
      d[b] = mpz::lanes::comb_digits(s[b], k, w);
      active |= Mask{_mm512_test_epi64_mask(d[b], d[b])} << (kLanes * b);
    }
    if (active == 0) continue;
    __m512i x[B][4], y[B][4];
    Mask entries = 0;  // lanes whose entry is not the identity
    for (std::size_t b = 0; b < B; ++b) {
      // Entry (k << w) + d starts 8 * ((k << w) + d) limbs into the table.
      const __m512i idx = _mm512_slli_epi64(_mm512_add_epi64(row, d[b]), 3);
      __m512i any = zero;
      for (std::size_t j = 0; j < 4; ++j) {
        x[b][j] = _mm512_i64gather_epi64(idx, table + j, 8);
        y[b][j] = _mm512_i64gather_epi64(idx, table + 4 + j, 8);
        any = _mm512_or_si512(any, _mm512_or_si512(x[b][j], y[b][j]));
      }
      entries |= Mask{_mm512_test_epi64_mask(any, any)} << (kLanes * b);
    }
    active &= entries;  // adding O changes nothing
    if (active == 0) continue;
    for (std::size_t b = 0; b < B; ++b) {
      q.x.v[b] = mpz::lanes::radix52(x[b]);
      q.y.v[b] = mpz::lanes::radix52(y[b]);
    }
    fmul(q.x, q.x, to_lane, f);
    fmul(q.y, q.y, to_lane, f);
    if (!add_into<true>(acc, acc_inf, active, q, f)) return false;
  }
  leave_lanes(acc, acc_inf, args, f, count, out);
  return true;
}

#pragma GCC diagnostic pop
#endif  // __x86_64__

}  // namespace

// Jacobian <-> affine convention: x = X/Z^2, y = Y/Z^3; the identity has
// infinity = true (coordinates unused). Every Fe holds a residue below p, so
// the limbs above the field's width stay zero and the 4-limb additions
// below serve every width; only the product takes the field's width.

EcGroup::EcGroup(CurveParams params)
    : params_(std::move(params)), field_(params_.p) {
  if (field_.mont().limbs() > kLimbs)
    throw std::invalid_argument("EcGroup: field wider than 256 bits");
  p_ = load(params_.p);
  a_ = load(field_.to(params_.a));
  b_ = load(field_.to(params_.b));
  if (b_ == Fe{})
    throw std::invalid_argument("EcGroup: b = 0 (the curve has order-2 points)");
  one_ = load(field_.one());
  a_is_minus3_ = params_.a == Nat::sub(params_.p, Nat{3});
  const Nat gx = field_.to(params_.gx), gy = field_.to(params_.gy);
  if (!on_curve(load(gx), load(gy)))
    throw std::invalid_argument("EcGroup: base point not on curve");
  gen_ = Elem{.a = gx, .b = gy, .c = field_.one()};
  if (mpz::lanes::cpu_has_avx512ifma())
    lanes_ = mpz::lanes::lane_consts(params_.p, field_.one(),
                                     field_.mont().limbs());
}

EcGroup::Fe EcGroup::load(const Nat& residue) const {
  Fe f;
  residue.to_limbs(f.l, kLimbs);
  return f;
}

EcGroup::Point EcGroup::load(const Elem& e) const {
  if (e.infinity) return Point{.inf = true};
  return Point{.x = load(e.a), .y = load(e.b), .z = load(e.c)};
}

Elem EcGroup::box(const Point& pt) const {
  if (pt.inf) return identity();
  const std::size_t k = field_.mont().limbs();
  return Elem{.a = Nat::from_limbs({pt.x.l, k}),
              .b = Nat::from_limbs({pt.y.l, k}),
              .c = Nat::from_limbs({pt.z.l, k})};
}

// y^2 == (x^2 + a)x + b on Montgomery residues.
bool EcGroup::on_curve(const Fe& x, const Fe& y) const {
  Fe lhs, rhs;
  fmul(lhs, y, y);
  fmul(rhs, x, x);
  fadd(rhs, rhs, a_);
  fmul(rhs, rhs, x);
  fadd(rhs, rhs, b_);
  return lhs == rhs;
}

bool EcGroup::on_curve(const Nat& x, const Nat& y) const {
  return on_curve(load(field_.to(x)), load(field_.to(y)));
}

Elem EcGroup::from_affine(const Nat& x, const Nat& y) const {
  const Nat xm = field_.to(x), ym = field_.to(y);
  if (!on_curve(load(xm), load(ym)))
    throw std::invalid_argument("EcGroup::from_affine: point not on curve");
  return Elem{.a = xm, .b = ym, .c = field_.one()};
}

void EcGroup::affine(Fe& x, Fe& y, const Point& pt, const Fe& zinv) const {
  Fe zz;
  fmul(zz, zinv, zinv);
  fmul(x, pt.x, zz);
  fmul(zz, zz, zinv);
  fmul(y, pt.y, zz);
}

EcGroup::Fe EcGroup::standard(const Fe& a) const {
  static constexpr Fe kPlainOne{.l = {1}};  // a·1/R: out of Montgomery form
  Fe out;
  fmul(out, a, kPlainOne);
  return out;
}

std::vector<Nat> EcGroup::z_inverses(std::span<const Elem* const> xs) const {
  std::vector<Nat> zs;
  zs.reserve(xs.size());
  for (const Elem* pt : xs)
    if (!pt->infinity) zs.push_back(pt->c);
  return field_.inv_many(zs);
}

std::pair<Nat, Nat> EcGroup::to_affine(const Elem& pt) const {
  if (pt.infinity)
    throw std::domain_error("EcGroup::to_affine: identity has no coordinates");
  Fe x, y;
  affine(x, y, load(pt), load(field_.inv(pt.c)));
  const std::size_t k = field_.mont().limbs();
  return {Nat::from_limbs({standard(x).l, k}),
          Nat::from_limbs({standard(y).l, k})};
}

// Jacobian doubling (Z3 = 2YZ, S = 4XY^2, X3 = M^2 - 2S,
// Y3 = M(S - X3) - 8Y^4) with M = 3(X - Z^2)(X + Z^2) when a = -3 (8
// products) and M = 3X^2 + aZ^4 otherwise (10). `out` may alias pt.
void EcGroup::dbl(Point& out, const Point& pt) const {
  if (pt.inf || pt.y == Fe{}) {
    out.inf = true;  // 2P = O for P = O and for points of order 2
    return;
  }
  Fe zz, yy, m, s, t;
  fmul(zz, pt.z, pt.z);
  fmul(yy, pt.y, pt.y);
  if (a_is_minus3_) {
    fsub(t, pt.x, zz);
    fadd(m, pt.x, zz);
    fmul(m, m, t);
  } else {
    fmul(m, pt.x, pt.x);
    fmul(t, zz, zz);
    fmul(t, t, a_);
  }
  fadd(s, m, m);
  fadd(m, s, m);
  if (!a_is_minus3_) fadd(m, m, t);
  fmul(s, pt.x, yy);
  fadd(s, s, s);
  fadd(s, s, s);
  fmul(out.z, pt.y, pt.z);  // the last read of pt
  fadd(out.z, out.z, out.z);
  fmul(out.x, m, m);
  fsub(out.x, out.x, s);
  fsub(out.x, out.x, s);
  fsub(t, s, out.x);
  fmul(t, m, t);
  fmul(yy, yy, yy);
  fadd(yy, yy, yy);
  fadd(yy, yy, yy);
  fadd(yy, yy, yy);
  fsub(out.y, t, yy);
  out.inf = false;
}

// Jacobian addition: U1 = X1 Z2^2, U2 = X2 Z1^2, S1 = Y1 Z2^3, S2 = Y2 Z1^3,
// H = U2 - U1, R = S2 - S1, X3 = R^2 - H^3 - 2 U1 H^2,
// Y3 = R(U1 H^2 - X3) - S1 H^3, Z3 = Z1 Z2 H: 16 products, 11 when q has
// Z = 1 (a decoded point, the generator). Equal representatives go straight
// to dbl; U1 == U2 is P = Q (dbl) or P = -Q (O). `out` may alias p or q.
void EcGroup::add(Point& out, const Point& p, const Point& q) const {
  if (p.inf) {
    out = q;
    return;
  }
  if (q.inf) {
    out = p;
    return;
  }
  if (p.x == q.x && p.y == q.y && p.z == q.z) {
    dbl(out, p);
    return;
  }
  const bool q_affine = q.z == one_;
  Fe u1, u2, s1, s2, t;
  if (q_affine) {
    u1 = p.x;
    s1 = p.y;
  } else {
    fmul(t, q.z, q.z);
    fmul(u1, p.x, t);
    fmul(t, t, q.z);
    fmul(s1, p.y, t);
  }
  fmul(t, p.z, p.z);
  fmul(u2, q.x, t);
  fmul(t, t, p.z);
  fmul(s2, q.y, t);
  if (u1 == u2) {
    if (s1 == s2)
      dbl(out, p);
    else
      out.inf = true;
    return;
  }
  Fe h, r, hh, hhh, v;
  fsub(h, u2, u1);
  fsub(r, s2, s1);
  fmul(hh, h, h);
  fmul(hhh, hh, h);
  fmul(v, u1, hh);
  if (q_affine) {
    fmul(out.z, p.z, h);
  } else {
    fmul(t, p.z, q.z);
    fmul(out.z, t, h);  // the last read of p and q
  }
  fmul(out.x, r, r);
  fsub(out.x, out.x, hhh);
  fsub(out.x, out.x, v);
  fsub(out.x, out.x, v);
  fsub(t, v, out.x);
  fmul(t, r, t);
  fmul(s1, s1, hhh);
  fsub(out.y, t, s1);
  out.inf = false;
}

Elem EcGroup::mul(const Elem& x, const Elem& y) const {
  if (x.infinity) return y;
  if (y.infinity) return x;
  Point out = load(x);
  add(out, out, load(y));
  return box(out);
}

// Product of bases[i]^exps[i] over N = 1 (exp) or 2 (dual_exp) terms:
// interleaved Straus with 4-bit windows, one run of doublings shared by
// all terms. Each base's table holds its powers up to the largest digit its
// exponent uses, so a short exponent builds a short table and a zero
// exponent (or the identity as base) none.
template <std::size_t N>
EcGroup::Point EcGroup::straus(const std::array<const Elem*, N>& bases,
                               const std::array<const Nat*, N>& exps) const {
  Point table[N][kDigits];
  std::array<unsigned, N> top{};  // largest digit of exps[i]; 0 skips base i
  std::size_t bits = 0;
  for (std::size_t i = 0; i < N; ++i) {
    if (bases[i]->infinity) continue;
    const std::size_t ebits = exps[i]->bit_length();
    for (std::size_t pos = 0; pos < ebits; pos += kWindow)
      top[i] = std::max(top[i], nibble(*exps[i], pos));
    if (top[i] == 0) continue;
    bits = std::max(bits, ebits);
    table[i][1] = load(*bases[i]);
    if (top[i] >= 2) dbl(table[i][2], table[i][1]);
    for (std::size_t d = 3; d <= top[i]; ++d)
      add(table[i][d], table[i][d - 1], table[i][1]);
  }
  Point acc{.inf = true};
  for (std::size_t w = (bits + kWindow - 1) / kWindow; w-- > 0;) {
    for (std::size_t s = 0; s < kWindow; ++s) dbl(acc, acc);
    for (std::size_t i = 0; i < N; ++i) {
      if (top[i] == 0) continue;
      const unsigned d = nibble(*exps[i], w * kWindow);
      if (d != 0) add(acc, acc, table[i][d]);
    }
  }
  return acc;
}

Elem EcGroup::exp(const Elem& base, const Nat& scalar) const {
  return box(straus<1>({&base}, {&scalar}));
}

Elem EcGroup::dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                       const Nat& ey) const {
  return box(straus<2>({&x, &y}, {&ex, &ey}));
}

void EcGroup::exp_many(std::span<const Elem> bases,
                       std::span<const Nat> scalars,
                       std::span<Elem> out) const {
  if (bases.size() != out.size() || scalars.size() != out.size())
    throw std::invalid_argument("EcGroup::exp_many: span sizes differ");
  const auto scalar = [&](std::size_t j) {
    out[j] = exp(bases[j], scalars[j]);
  };
#if defined(__x86_64__)
  if (lanes_.has_value()) {
    const LaneArgs args{*lanes_, p_.l, a_.l, a_is_minus3_, gen_,
                        field_.mont().limbs()};
    count_lanes(mpz::lanes::split_lanes(
        out.size(),
        [&]<std::size_t B>(std::size_t i, std::size_t count) {
          return straus_lanes<1, B>(args, {&bases[i]}, {&scalars[i]}, count,
                                    &out[i]);
        },
        scalar));
    return;
  }
#endif
  for (std::size_t i = 0; i < out.size(); ++i) scalar(i);
}

void EcGroup::dual_exp_many(std::span<const Elem> xs, std::span<const Nat> exs,
                            std::span<const Elem> ys, std::span<const Nat> eys,
                            std::span<Elem> out) const {
  if (xs.size() != out.size() || exs.size() != out.size() ||
      ys.size() != out.size() || eys.size() != out.size())
    throw std::invalid_argument("EcGroup::dual_exp_many: span sizes differ");
  const auto scalar = [&](std::size_t j) {
    out[j] = dual_exp(xs[j], exs[j], ys[j], eys[j]);
  };
#if defined(__x86_64__)
  if (lanes_.has_value()) {
    const LaneArgs args{*lanes_, p_.l, a_.l, a_is_minus3_, gen_,
                        field_.mont().limbs()};
    count_lanes(mpz::lanes::split_lanes(
        out.size(),
        [&]<std::size_t B>(std::size_t i, std::size_t count) {
          return straus_lanes<2, B>(args, {&xs[i], &ys[i]},
                                    {&exs[i], &eys[i]}, count, &out[i]);
        },
        scalar));
    return;
  }
#endif
  for (std::size_t i = 0; i < out.size(); ++i) scalar(i);
}

const FixedBaseTable& EcGroup::gen_table() const {
  std::call_once(gen_table_once_, [&] {
    gen_table_ = std::make_unique<FixedBaseTable>(*this, gen_);
  });
  return *gen_table_;
}

Elem EcGroup::exp_g(const Nat& scalar) const {
  return comb(gen_table(), scalar);
}

void EcGroup::exp_g_many(std::span<const Nat> scalars,
                         std::span<Elem> out) const {
  exp_fixed_many(gen_table(), scalars, out);
}

Elem EcGroup::comb(const FixedBaseTable& table, const Nat& scalar) const {
  if (!table.fits(scalar)) return exp(table.base(), scalar);
  Point acc{.inf = true}, entry{.z = one_};
  for (std::size_t w = 0; w < table.windows_of(scalar); ++w) {
    const unsigned d = table.digit(scalar, w);
    if (d == 0) continue;
    const Limb* xy =
        table.packed().data() + 2 * kLimbs * ((w << table.window_bits()) + d);
    std::copy_n(xy, kLimbs, entry.x.l);
    std::copy_n(xy + kLimbs, kLimbs, entry.y.l);
    if (entry.x == Fe{} && entry.y == Fe{}) continue;  // the identity
    add(acc, acc, entry);
  }
  return box(acc);
}

void EcGroup::exp_fixed_many(const FixedBaseTable& table,
                             std::span<const Nat> scalars,
                             std::span<Elem> out) const {
  if (scalars.size() != out.size())
    throw std::invalid_argument("EcGroup::exp_fixed_many: span sizes differ");
  if (table.packed().size() != table.entries() * 2 * kLimbs)
    throw std::invalid_argument(
        "EcGroup::exp_fixed_many: table not packed by this group");
  const auto scalar = [&](std::size_t j) { out[j] = comb(table, scalars[j]); };
#if defined(__x86_64__)
  if (lanes_.has_value()) {
    const LaneArgs args{*lanes_, p_.l, a_.l, a_is_minus3_, gen_,
                        field_.mont().limbs()};
    count_lanes(mpz::lanes::split_lanes(
        out.size(),
        [&]<std::size_t B>(std::size_t i, std::size_t count) {
          return comb_lanes<B>(args, table.packed().data(), table.window_bits(),
                               table.windows(), &scalars[i], count, &out[i]);
        },
        scalar));
    return;
  }
#endif
  for (std::size_t i = 0; i < out.size(); ++i) scalar(i);
}

std::vector<Limb> EcGroup::pack_table(std::span<const Elem> entries) const {
  std::vector<const Elem*> ptrs(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) ptrs[i] = &entries[i];
  const std::vector<Nat> zinvs = z_inverses(ptrs);
  // The combs add entries with the mixed addition (Z = 1), and read all
  // zeros as the identity: with b != 0, (0, 0) is not on the curve.
  std::vector<Limb> out(entries.size() * 2 * kLimbs, 0);
  std::size_t zi = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].infinity) continue;
    Fe x, y;
    affine(x, y, load(entries[i]), load(zinvs[zi++]));
    std::copy_n(x.l, kLimbs, &out[2 * kLimbs * i]);
    std::copy_n(y.l, kLimbs, &out[2 * kLimbs * i + kLimbs]);
  }
  return out;
}

Elem EcGroup::inv(const Elem& x) const {
  if (x.infinity) return x;
  Fe y;
  fsub(y, Fe{}, load(x.b));
  return Elem{.a = x.a,
              .b = Nat::from_limbs({y.l, field_.mont().limbs()}),
              .c = x.c};
}

bool EcGroup::eq(const Elem& x, const Elem& y) const {
  if (x.infinity || y.infinity) return x.infinity == y.infinity;
  // Cross-multiplied Jacobian comparison: X1 Z2^2 == X2 Z1^2 and
  // Y1 Z2^3 == Y2 Z1^3.
  const Point p = load(x), q = load(y);
  Fe z1z1, z2z2, l, r;
  fmul(z1z1, p.z, p.z);
  fmul(z2z2, q.z, q.z);
  fmul(l, p.x, z2z2);
  fmul(r, q.x, z1z1);
  if (l != r) return false;
  fmul(z2z2, z2z2, q.z);
  fmul(z1z1, z1z1, p.z);
  fmul(l, p.y, z2z2);
  fmul(r, q.y, z1z1);
  return l == r;
}

std::size_t EcGroup::element_bytes() const {
  return 1 + 2 * ((field_.bits() + 7) / 8);
}

void EcGroup::write_affine(std::uint8_t* dst, const Point& pt,
                           const Fe& zinv) const {
  const std::size_t fb = (field_.bits() + 7) / 8;
  Fe x, y;
  affine(x, y, pt, zinv);
  dst[0] = 0x04;
  mpz::limbs_to_be({dst + 1, fb}, standard(x).l);
  mpz::limbs_to_be({dst + 1 + fb, fb}, standard(y).l);
}

std::vector<std::uint8_t> EcGroup::serialize(const Elem& x) const {
  std::vector<std::uint8_t> out(element_bytes(), 0);
  if (x.infinity) return out;  // all-zero encoding for the identity
  write_affine(out.data(), load(x), load(field_.inv(x.c)));
  return out;
}

void EcGroup::serialize_into(std::span<const Elem* const> xs,
                             std::span<std::uint8_t> out) const {
  const std::size_t eb = element_bytes();
  if (out.size() != xs.size() * eb)
    throw std::invalid_argument("EcGroup::serialize_into: output size");
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  const std::vector<Nat> zinvs = z_inverses(xs);
  if (zinvs.empty()) return;  // all identities: all-zero encodings
  runtime::count_op(runtime::CryptoOp::kAccelBatchInverse, zinvs.size());
  std::size_t zi = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i]->infinity) continue;
    write_affine(out.data() + i * eb, load(*xs[i]), load(zinvs[zi++]));
  }
}

Elem EcGroup::deserialize(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() != element_bytes())
    throw std::invalid_argument("EcGroup::deserialize: bad length");
  // Only canonical encodings decode, so every element has exactly one: the
  // identity is all zeros, and a finite point's coordinates are below p.
  if (bytes[0] == 0x00) {
    if (std::any_of(bytes.begin() + 1, bytes.end(),
                    [](std::uint8_t b) { return b != 0; }))
      throw std::invalid_argument("EcGroup::deserialize: bad identity");
    return identity();
  }
  if (bytes[0] != 0x04)
    throw std::invalid_argument("EcGroup::deserialize: bad prefix");
  const std::size_t fb = (field_.bits() + 7) / 8;
  const Nat x = Nat::from_bytes_be(bytes.subspan(1, fb));
  const Nat y = Nat::from_bytes_be(bytes.subspan(1 + fb, fb));
  if (x >= field_.p() || y >= field_.p())
    throw std::invalid_argument("EcGroup::deserialize: coordinate not below p");
  return from_affine(x, y);  // validates curve membership
}

CurveParams nist_p192() {
  const Nat p = Nat::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff");
  return CurveParams{
      .name = "ecc-p192",
      .p = p,
      .a = Nat::sub(p, Nat{3}),
      .b = Nat::from_hex("64210519e59c80e70fa7e9ab72243049feb8deecc146b9b1"),
      .gx = Nat::from_hex("188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012"),
      .gy = Nat::from_hex("07192b95ffc8da78631011ed6b24cdd573f977a11e794811"),
      .order = Nat::from_hex("ffffffffffffffffffffffff99def836146bc9b1b4d22831"),
  };
}

CurveParams nist_p224() {
  const Nat p =
      Nat::from_hex("ffffffffffffffffffffffffffffffff000000000000000000000001");
  return CurveParams{
      .name = "ecc-p224",
      .p = p,
      .a = Nat::sub(p, Nat{3}),
      .b = Nat::from_hex(
          "b4050a850c04b3abf54132565044b0b7d7bfd8ba270b39432355ffb4"),
      .gx = Nat::from_hex(
          "b70e0cbd6bb4bf7f321390b94a03c1d356c21122343280d6115c1d21"),
      .gy = Nat::from_hex(
          "bd376388b5f723fb4c22dfe6cd4375a05a07476444d5819985007e34"),
      .order = Nat::from_hex(
          "ffffffffffffffffffffffffffff16a2e0b8f03e13dd29455c5c2a3d"),
  };
}

CurveParams nist_p256() {
  const Nat p = Nat::from_hex(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  return CurveParams{
      .name = "ecc-p256",
      .p = p,
      .a = Nat::sub(p, Nat{3}),
      .b = Nat::from_hex(
          "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"),
      .gx = Nat::from_hex(
          "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
      .gy = Nat::from_hex(
          "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
      .order = Nat::from_hex(
          "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"),
  };
}

}  // namespace ppgr::group
