#include "crypto/schnorr_proof.h"

#include <stdexcept>

#include "mpz/modarith.h"
#include "runtime/metrics.h"

namespace ppgr::crypto {

namespace {
Nat sum_mod_q(const Group& g, std::span<const Nat> xs) {
  Nat s;
  for (const Nat& x : xs) s = Nat::add(s, x) % g.order();
  return s;
}
}  // namespace

SchnorrProverState schnorr_commit(const Group& g, Rng& rng) {
  SchnorrProverState st;
  st.r = g.random_scalar(rng);
  st.commitment = g.exp_g(st.r);
  return st;
}

Nat schnorr_challenge(const Group& g, Rng& rng) {
  return g.random_scalar(rng);
}

Nat schnorr_respond(const Group& g, const SchnorrProverState& st, const Nat& x,
                    std::span<const Nat> challenges) {
  const Nat csum = sum_mod_q(g, challenges);
  return Nat::add(st.r, Nat::mul(x % g.order(), csum) % g.order()) % g.order();
}

SchnorrProof schnorr_proof(const Group& g, const SchnorrTranscript& t) {
  return SchnorrProof{.commitment = t.commitment,
                      .challenge_sum = sum_mod_q(g, t.challenges),
                      .response = t.response};
}

bool schnorr_verify(const Group& g, const Elem& y, const SchnorrProof& p) {
  const runtime::ScopedOpTimer timer(runtime::CryptoOp::kSchnorrVerify);
  const Elem lhs = g.exp_g(p.response);
  const Elem rhs = g.mul(p.commitment, g.exp(y, p.challenge_sum));
  return g.eq(lhs, rhs);
}

SchnorrTranscript schnorr_prove(const Group& g, const Nat& x,
                                std::size_t n_verifiers, Rng& rng) {
  const runtime::ScopedOpTimer timer(runtime::CryptoOp::kSchnorrProve);
  const SchnorrProverState st = schnorr_commit(g, rng);
  SchnorrTranscript t;
  t.commitment = st.commitment;
  t.challenges.reserve(n_verifiers);
  for (std::size_t i = 0; i < n_verifiers; ++i)
    t.challenges.push_back(schnorr_challenge(g, rng));
  t.response = schnorr_respond(g, st, x, t.challenges);
  return t;
}

Nat schnorr_extract(const Group& g, const SchnorrTranscript& t1,
                    const SchnorrTranscript& t2) {
  if (!g.eq(t1.commitment, t2.commitment))
    throw std::invalid_argument("schnorr_extract: different commitments");
  const Nat& q = g.order();
  const Nat c1 = sum_mod_q(g, t1.challenges);
  const Nat c2 = sum_mod_q(g, t2.challenges);
  if (c1 == c2)
    throw std::invalid_argument("schnorr_extract: equal total challenges");
  // x = (z1 - z2) / (c1 - c2) mod q.
  const Nat dz = Nat::add(t1.response, Nat::sub(q, t2.response % q)) % q;
  const Nat dc = Nat::add(c1, Nat::sub(q, c2)) % q;
  const auto dc_inv = mpz::invmod(dc, q);
  if (!dc_inv)  // q prime, dc != 0, so this cannot happen
    throw std::invalid_argument("schnorr_extract: challenge diff not invertible");
  return Nat::mul(dz, *dc_inv) % q;
}

SchnorrTranscript schnorr_simulate(const Group& g, const Elem& y,
                                   std::size_t n_verifiers, Rng& rng) {
  SchnorrTranscript t;
  t.challenges.reserve(n_verifiers);
  for (std::size_t i = 0; i < n_verifiers; ++i)
    t.challenges.push_back(schnorr_challenge(g, rng));
  t.response = g.random_scalar(rng);
  // h = g^z / y^{Σc} makes the verification equation hold by construction.
  const Nat csum = sum_mod_q(g, t.challenges);
  t.commitment = g.div(g.exp_g(t.response), g.exp(y, csum));
  return t;
}

}  // namespace ppgr::crypto
