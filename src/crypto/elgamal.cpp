#include "crypto/elgamal.h"

#include <stdexcept>
#include <vector>

#include "runtime/metrics.h"

namespace ppgr::crypto {

using runtime::CryptoOp;

KeyPair keygen(const Group& g, Rng& rng) {
  KeyPair kp;
  kp.x = g.random_nonzero_scalar(rng);
  kp.y = g.exp_g(kp.x);
  return kp;
}

Elem joint_public_key(const Group& g, std::span<const Elem> ys) {
  Elem y = g.identity();
  for (const Elem& yi : ys) y = g.mul(y, yi);
  return y;
}

Ciphertext encrypt(const Group& g, const FixedBaseTable& y, const Elem& m,
                   Rng& rng) {
  const runtime::ScopedOpTimer timer(CryptoOp::kElGamalEncrypt);
  const Nat r = g.random_nonzero_scalar(rng);
  return Ciphertext{.c = g.mul(m, g.exp_fixed(y, r)), .cp = g.exp_g(r)};
}

Elem decrypt(const Group& g, const Nat& x, const Ciphertext& ct) {
  const runtime::ScopedOpTimer timer(CryptoOp::kElGamalDecrypt);
  return g.div(ct.c, g.exp(ct.cp, x));
}

Ciphertext encrypt_exp(const Group& g, const FixedBaseTable& y, const Nat& m,
                       Rng& rng) {
  return encrypt(g, y, g.exp_g(m), rng);
}

void encrypt_exp_many(const Group& g, const FixedBaseTable& y,
                      std::span<const Nat> ms, std::span<const Nat> r,
                      std::span<Ciphertext> out) {
  if (ms.size() != out.size() || r.size() != out.size())
    throw std::invalid_argument("encrypt_exp_many: span sizes differ");
  const runtime::ScopedOpTimer timer(CryptoOp::kElGamalEncrypt, out.size(),
                                     runtime::ScopedOpTimer::Samples::kPerOp);
  std::vector<Elem> gm(out.size()), yr(out.size());
  g.exp_g_many(ms, gm);
  g.exp_fixed_many(y, r, yr);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i].c = g.mul(gm[i], yr[i]);
  g.exp_g_many(r, gm);
  for (std::size_t i = 0; i < out.size(); ++i) out[i].cp = std::move(gm[i]);
}

Elem decrypt_exp(const Group& g, const Nat& x, const Ciphertext& ct) {
  return decrypt(g, x, ct);
}

// g^m = c / cp^x is the identity iff c == cp^x.
bool decrypts_to_zero(const Group& g, const Nat& x, const Ciphertext& ct) {
  const runtime::ScopedOpTimer timer(CryptoOp::kElGamalDecrypt);
  return g.eq(ct.c, g.exp(ct.cp, x));
}

std::size_t count_zero_decryptions(const Group& g, const Nat& x,
                                   std::span<const Ciphertext> cts) {
  if (cts.empty()) return 0;
  const runtime::ScopedOpTimer timer(CryptoOp::kElGamalDecrypt, cts.size());
  std::vector<Elem> cps, shared(cts.size());
  cps.reserve(cts.size());
  for (const Ciphertext& ct : cts) cps.push_back(ct.cp);
  const std::vector<Nat> xs(cts.size(), x);
  g.exp_many(cps, xs, shared);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < cts.size(); ++i)
    if (g.eq(cts[i].c, shared[i])) ++zeros;
  return zeros;
}

Ciphertext ct_add(const Group& g, const Ciphertext& a, const Ciphertext& b) {
  return Ciphertext{.c = g.mul(a.c, b.c), .cp = g.mul(a.cp, b.cp)};
}

Ciphertext ct_sub(const Group& g, const Ciphertext& a, const Ciphertext& b) {
  return Ciphertext{.c = g.div(a.c, b.c), .cp = g.div(a.cp, b.cp)};
}

Ciphertext ct_scale(const Group& g, const Ciphertext& ct, const Nat& k) {
  return Ciphertext{.c = g.exp(ct.c, k), .cp = g.exp(ct.cp, k)};
}

Ciphertext ct_add_plain(const Group& g, const Ciphertext& ct, const Nat& k) {
  return Ciphertext{.c = g.mul(ct.c, g.exp_g(k)), .cp = ct.cp};
}

Ciphertext rerandomize(const Group& g, const FixedBaseTable& y,
                       const Ciphertext& ct, Rng& rng) {
  const runtime::ScopedOpTimer timer(CryptoOp::kElGamalRerandomize);
  const Nat r = g.random_nonzero_scalar(rng);
  return Ciphertext{.c = g.mul(ct.c, g.exp_fixed(y, r)),
                    .cp = g.mul(ct.cp, g.exp_g(r))};
}

void rerandomize_many(const Group& g, const FixedBaseTable& y,
                      std::span<Ciphertext> cts, std::span<const Nat> r) {
  if (r.size() != cts.size())
    throw std::invalid_argument("rerandomize_many: span sizes differ");
  const runtime::ScopedOpTimer timer(CryptoOp::kElGamalRerandomize,
                                     cts.size(),
                                     runtime::ScopedOpTimer::Samples::kPerOp);
  std::vector<Elem> pow(cts.size());
  g.exp_fixed_many(y, r, pow);
  for (std::size_t i = 0; i < cts.size(); ++i)
    cts[i].c = g.mul(cts[i].c, pow[i]);
  g.exp_g_many(r, pow);
  for (std::size_t i = 0; i < cts.size(); ++i)
    cts[i].cp = g.mul(cts[i].cp, pow[i]);
}

Ciphertext partial_decrypt(const Group& g, const Nat& x_j,
                           const Ciphertext& ct) {
  runtime::count_op(CryptoOp::kElGamalPartialDecrypt);
  return Ciphertext{.c = g.div(ct.c, g.exp(ct.cp, x_j)), .cp = ct.cp};
}

Ciphertext exp_randomize(const Group& g, const Ciphertext& ct, const Nat& r) {
  runtime::count_op(CryptoOp::kElGamalExpRandomize);
  return Ciphertext{.c = g.exp(ct.c, r), .cp = g.exp(ct.cp, r)};
}

}  // namespace ppgr::crypto
