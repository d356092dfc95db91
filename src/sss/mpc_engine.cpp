#include "sss/mpc_engine.h"

#include <stdexcept>

namespace ppgr::sss {

MpcCosts& MpcCosts::operator+=(const MpcCosts& o) {
  mults += o.mults;
  opens += o.opens;
  deals += o.deals;
  rounds += o.rounds;
  bytes += o.bytes;
  rand_bits += o.rand_bits;
  comparisons += o.comparisons;
  return *this;
}

MpcCosts operator-(MpcCosts a, const MpcCosts& b) {
  a.mults -= b.mults;
  a.opens -= b.opens;
  a.deals -= b.deals;
  a.rounds -= b.rounds;
  a.bytes -= b.bytes;
  a.rand_bits -= b.rand_bits;
  a.comparisons -= b.comparisons;
  return a;
}

namespace {

Shamir checked_scheme(const FpCtx& f, std::size_t n, std::size_t t) {
  if (n < 2 || t == 0 || n < 2 * t + 1)
    throw std::invalid_argument("MpcEngine: need n >= 2t+1, t >= 1");
  return Shamir{f, t, n};
}

// Residue scratch for one field element (the widest a MontCtx takes).
using Residue = Limb[mpz::MontCtx::kCiosMaxLimbs];

}  // namespace

MpcEngine::MpcEngine(const FpCtx& f, std::size_t n, std::size_t t, Rng& rng,
                     Mode mode)
    : f_(f),
      mont_(f.mont()),
      n_(n),
      t_(t),
      rng_(rng),
      mode_(mode),
      scheme_(checked_scheme(f, n, t)),
      sub_(n * scheme_.width()),
      two_(f.to(Nat{2})),
      inv2_(f.inv(two_)) {}

void MpcEngine::charge_round(std::uint64_t messages) {
  costs_.rounds += 1;
  costs_.bytes += messages * ((f_.bits() + 7) / 8);
}

ShareVec MpcEngine::input(const Nat& secret) {
  costs_.deals += 1;
  charge_round(n_ - 1);
  if (counting()) return {};
  ShareVec out = blank();
  Residue s = {};
  scheme_.load(s, secret);
  scheme_.deal(out.share(0), s, rng_);
  return out;
}

ShareVec MpcEngine::constant(const Nat& value) const {
  if (counting()) return {};
  ShareVec out = blank();
  for (std::size_t i = 0; i < n_; ++i) scheme_.load(out.share(i), value);
  return out;
}

Nat MpcEngine::open(const ShareVec& x) {
  costs_.opens += 1;
  charge_round(n_ * (n_ - 1));
  if (counting()) return f_.zero();
  Residue v = {};
  scheme_.open(v, x.share(0));
  return Nat::from_limbs({v, scheme_.width()});
}

ShareVec MpcEngine::add(const ShareVec& a, const ShareVec& b) const {
  if (counting()) return {};
  ShareVec out = blank();
  mont_.add_limbs(out.share(0), a.share(0), b.share(0), n_);
  return out;
}

ShareVec MpcEngine::sub(const ShareVec& a, const ShareVec& b) const {
  if (counting()) return {};
  ShareVec out = blank();
  mont_.sub_limbs(out.share(0), a.share(0), b.share(0), n_);
  return out;
}

ShareVec MpcEngine::add_const(const ShareVec& a, const Nat& c) const {
  if (counting()) return {};
  Residue cl = {};
  scheme_.load(cl, c);
  ShareVec out = blank();
  for (std::size_t i = 0; i < n_; ++i)
    mont_.add_limbs(out.share(i), a.share(i), cl);
  return out;
}

ShareVec MpcEngine::mul_const(const ShareVec& a, const Nat& c) const {
  if (counting()) return {};
  Residue cl = {};
  scheme_.load(cl, c);
  ShareVec out = blank();
  for (std::size_t i = 0; i < n_; ++i)
    mont_.mul_limbs(out.share(i), a.share(i), cl);
  return out;
}

ShareVec MpcEngine::neg(const ShareVec& a) const {
  if (counting()) return {};
  ShareVec out = blank();  // zero shares
  mont_.sub_limbs(out.share(0), out.share(0), a.share(0), n_);
  return out;
}

ShareVec MpcEngine::one_minus(const ShareVec& x) const {
  if (counting()) return {};
  ShareVec out = constant(f_.one());
  mont_.sub_limbs(out.share(0), out.share(0), x.share(0), n_);
  return out;
}

ShareVec MpcEngine::grr(const ShareVec& a, const ShareVec& b) {
  // GRR: each party multiplies its shares locally (degree 2t), re-shares the
  // product with degree t, and everyone recombines the sub-shares with the
  // Lagrange coefficients for x=0 over points 1..n (n >= 2t+1 makes the
  // degree-2t polynomial determined).
  ShareVec result = blank();
  Residue d = {};
  for (std::size_t i = 0; i < n_; ++i) {
    mont_.mul_limbs(d, a.share(i), b.share(i));
    scheme_.deal(sub_.data(), d, rng_);
    scheme_.recombine(result.share(0), i, sub_.data());
  }
  return result;
}

ShareVec MpcEngine::mul(const ShareVec& a, const ShareVec& b) {
  costs_.mults += 1;
  charge_round(n_ * (n_ - 1));
  if (counting()) return {};
  return grr(a, b);
}

std::vector<ShareVec> MpcEngine::mul_many(
    std::span<const std::pair<ShareVec, ShareVec>> pairs) {
  // One parallel round for the whole batch.
  costs_.mults += pairs.size();
  charge_round(pairs.size() * n_ * (n_ - 1));
  std::vector<ShareVec> out;
  out.reserve(pairs.size());
  if (counting()) {
    out.resize(pairs.size());
    return out;
  }
  for (const auto& [a, b] : pairs) out.push_back(grr(a, b));
  return out;
}

ShareVec MpcEngine::rand_share() {
  // Every party deals a random sharing; the sum is uniform and unknown to
  // any t-subset.
  costs_.deals += n_;
  charge_round(n_ * (n_ - 1));
  if (counting()) return {};
  ShareVec acc = blank();
  Residue secret = {};
  for (std::size_t i = 0; i < n_; ++i) {
    f_.random_limbs(rng_, secret);
    scheme_.deal(sub_.data(), secret, rng_);
    mont_.add_limbs(acc.share(0), acc.share(0), sub_.data(), n_);
  }
  return acc;
}

std::vector<ShareVec> MpcEngine::rand_bits_many(std::size_t k) {
  // Square-root trick (Damgård et al.): r random, open r^2 (retry on 0),
  // s = canonical sqrt of the opened square, b = (r/s + 1)/2.
  costs_.rand_bits += k;
  std::vector<ShareVec> bits(k);
  // In counting mode assume first-try success (retry probability 1/p).
  std::vector<ShareVec> rs(k);
  std::vector<std::pair<ShareVec, ShareVec>> squares;
  squares.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    rs[i] = rand_share();
    squares.emplace_back(rs[i], rs[i]);
  }
  auto r2 = mul_many(squares);
  if (counting()) {
    for (std::size_t i = 0; i < k; ++i) (void)open(r2[i]);
    return bits;
  }
  std::vector<Nat> roots(k);
  for (std::size_t i = 0; i < k; ++i) {
    Nat opened = open(r2[i]);
    while (f_.is_zero(opened)) {  // r == 0: retry this one
      rs[i] = rand_share();
      opened = open(mul(rs[i], rs[i]));
    }
    const auto root = f_.sqrt(opened);
    if (!root) throw std::logic_error("rand_bits_many: square has no root");
    // Canonical root: the one with standard representative <= (p-1)/2, so
    // all parties agree without communication.
    roots[i] = *root;
    if (f_.from(roots[i]) > f_.p().shr(1)) roots[i] = f_.neg(roots[i]);
  }
  // The roots are public and nonzero: one batched inversion for all k.
  const std::vector<Nat> inv_roots = f_.inv_many(roots);
  for (std::size_t i = 0; i < k; ++i)
    bits[i] = mul_const(add_const(mul_const(rs[i], inv_roots[i]), f_.one()),
                        inv2_);
  return bits;
}

MpcEngine::BitwiseRandom MpcEngine::rand_bitwise() {
  const std::size_t l = f_.bits();
  for (;;) {
    BitwiseRandom out;
    out.bits = rand_bits_many(l);
    if (!counting()) {
      out.value = constant(f_.zero());
      for (std::size_t i = 0; i < l; ++i) {
        const Nat pow2 = f_.to(Nat::pow2(i));
        out.value = add(out.value, mul_const(out.bits[i], pow2));
      }
    }
    // Rejection: keep only r < p. [p-1 < r] must open to 0.
    const Nat p_minus_1 = Nat::sub(f_.p(), Nat{1});
    const ShareVec too_big = bit_lt_public(p_minus_1, out.bits);
    const Nat flag = open(too_big);
    if (counting()) return out;  // expected-case: first try accepted
    if (f_.is_zero(flag)) return out;
  }
}

ShareVec MpcEngine::bit_lt_public(const Nat& c,
                                  std::span<const ShareVec> r_bits) {
  const std::size_t l = r_bits.size();
  // e_i = [r_i == c_i] (linear in r_i for public c_i);
  // suffix_i = Π_{j>i} e_j; term_i = [r_i > c_i] * suffix_i;
  // [c < r] = Σ term_i  (at most one term fires).
  if (counting()) {
    // Suffix chain: l-1 sequential multiplications; terms: one parallel
    // round of at most l multiplications (only bits with c_i = 0 need one;
    // charge the worst case so counts are data-independent).
    for (std::size_t i = 0; i + 1 < l; ++i) (void)mul({}, {});
    std::vector<std::pair<ShareVec, ShareVec>> batch(l);
    (void)mul_many(batch);
    return {};
  }
  std::vector<ShareVec> e(l);
  for (std::size_t i = 0; i < l; ++i) {
    const bool ci = c.bit(i);
    // e_i = 1 - r_i if c_i == 0, else r_i.
    e[i] = ci ? r_bits[i] : one_minus(r_bits[i]);
  }
  // suffix[i] = Π_{j > i} e_j, suffix[l-1] = 1.
  std::vector<ShareVec> suffix(l);
  suffix[l - 1] = constant(f_.one());
  for (std::size_t i = l - 1; i-- > 0;) suffix[i] = mul(suffix[i + 1], e[i + 1]);
  // term_i = r_i * suffix_i where c_i == 0 (r_i > c_i possible only there);
  // batch them in one parallel round (pad with dummies so the charged count
  // matches the data-independent counting mode).
  std::vector<std::pair<ShareVec, ShareVec>> batch;
  for (std::size_t i = 0; i < l; ++i) {
    // r_i > c_i is possible only where c_i == 0; multiply a zero dummy at
    // the other positions so the charged count stays data-independent.
    batch.emplace_back(c.bit(i) ? constant(f_.zero()) : r_bits[i], suffix[i]);
  }
  const auto terms = mul_many(batch);
  ShareVec acc = constant(f_.zero());
  for (std::size_t i = 0; i < l; ++i) {
    if (!c.bit(i)) acc = add(acc, terms[i]);
  }
  return acc;
}

ShareVec MpcEngine::lsb(const ShareVec& x) {
  // Open c = x + r with bitwise-known r; then x0 = c0 XOR r0 XOR [c < r]
  // (p odd, so the wrap adds p which is odd).
  const BitwiseRandom r = rand_bitwise();
  if (counting()) {
    (void)open({});  // the c opening
    (void)bit_lt_public(f_.zero(), std::vector<ShareVec>(f_.bits()));
    (void)mul({}, {});  // the final XOR
    return {};
  }
  const Nat c = f_.from(open(add(x, r.value)));
  const ShareVec wrap = bit_lt_public(c, r.bits);
  // t1 = c0 XOR r0 (linear: c0 public).
  const ShareVec t1 = c.bit(0) ? one_minus(r.bits[0]) : r.bits[0];
  // x0 = t1 XOR wrap = t1 + wrap - 2*t1*wrap.
  const ShareVec prod = mul(t1, wrap);
  return sub(add(t1, wrap), mul_const(prod, two_));
}

ShareVec MpcEngine::half_test(const ShareVec& x) {
  // [x < p/2] = 1 - LSB(2x): doubling wraps (odd result) iff x >= p/2.
  if (counting()) {
    (void)lsb({});
    return {};
  }
  return one_minus(lsb(mul_const(x, two_)));
}

ShareVec MpcEngine::less_than(const ShareVec& a, const ShareVec& b) {
  costs_.comparisons += 1;
  // Nishide–Ohta: three half-range tests,
  //   w = [a < p/2], x = [b < p/2], y = [(a - b) mod p < p/2];
  // [a < b] = (1-y)*(w*x + (1-w)*(1-x)) + w*(1-x).
  const ShareVec w = half_test(a);
  const ShareVec x = half_test(b);
  if (counting()) {
    (void)half_test({});
    (void)mul({}, {});
    (void)mul({}, {});
    return {};
  }
  const ShareVec y = half_test(sub(a, b));
  const ShareVec wx = mul(w, x);
  // s = w*x + (1-w)*(1-x) = 1 - w - x + 2wx.
  const ShareVec s = one_minus(sub(add(w, x), mul_const(wx, two_)));
  const ShareVec not_y = one_minus(y);
  const ShareVec first = mul(not_y, s);
  const ShareVec w_not_x = sub(w, wx);
  return add(first, w_not_x);
}

}  // namespace ppgr::sss
