#include "crypto/elgamal.h"

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

Ciphertext encrypt(const Group& g, const Elem& y, const Elem& m, Rng& rng) {
  const runtime::ScopedOpTimer timer(CryptoOp::kElGamalEncrypt);
  const Nat r = g.random_nonzero_scalar(rng);
  return Ciphertext{.c = g.mul(m, g.exp(y, r)), .cp = g.exp_g(r)};
}

Elem decrypt(const Group& g, const Nat& x, const Ciphertext& ct) {
  const runtime::ScopedOpTimer timer(CryptoOp::kElGamalDecrypt);
  return g.div(ct.c, g.exp(ct.cp, x));
}

Ciphertext encrypt_exp(const Group& g, const Elem& y, const Nat& m, Rng& rng) {
  return encrypt(g, y, g.exp_g(m), rng);
}

Elem decrypt_exp(const Group& g, const Nat& x, const Ciphertext& ct) {
  return decrypt(g, x, ct);
}

bool decrypts_to_zero(const Group& g, const Nat& x, const Ciphertext& ct) {
  return g.is_identity(decrypt(g, x, ct));
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

Ciphertext rerandomize(const Group& g, const Elem& y, const Ciphertext& ct,
                       Rng& rng) {
  const runtime::ScopedOpTimer timer(CryptoOp::kElGamalRerandomize);
  const Nat r = g.random_nonzero_scalar(rng);
  return Ciphertext{.c = g.mul(ct.c, g.exp(y, r)),
                    .cp = g.mul(ct.cp, g.exp_g(r))};
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

std::size_t ciphertext_bytes(const Group& g) { return 2 * g.element_bytes(); }

}  // namespace ppgr::crypto
