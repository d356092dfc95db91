#include "core/framework.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/party_driver.h"
#include "core/streams.h"

namespace ppgr::core {

using crypto::ct_add;
using crypto::ct_add_plain;

void FrameworkConfig::validate() const {
  spec.validate();
  if (n < 2) throw std::invalid_argument("FrameworkConfig: need n >= 2");
  if (k < 1 || k > n) throw std::invalid_argument("FrameworkConfig: bad k");
  if (group == nullptr || dot_field == nullptr)
    throw std::invalid_argument("FrameworkConfig: group/dot_field not set");
  // The dot-product field must exactly represent every β (plus slack for
  // the signed centering).
  if (spec.beta_bits() + 2 > dot_field->bits())
    throw std::invalid_argument(
        "FrameworkConfig: dot-product field too small for beta range");
}

// ---------------- Initiator ----------------

Initiator::Initiator(const FrameworkConfig& cfg, AttrVec v0, AttrVec w,
                     Rng& rng)
    : cfg_(cfg), v0_(std::move(v0)), w_(std::move(w)) {
  cfg_.validate();
  cfg_.spec.check_attributes(v0_);
  cfg_.spec.check_weights(w_);
  // ρ: h-bit, top bit forced so ρ_j < ρ leaves a full range; ρ >= 1.
  rho_ = rng.bits(cfg_.spec.h);
  rho_.set_bit(cfg_.spec.h - 1, true);
  rho_j_.resize(cfg_.n);
  for (auto& rj : rho_j_) rj = rng.below(rho_);  // [0, ρ) — strict order
}

dotprod::AliceRound2 Initiator::answer_gain_query(
    std::size_t j, const dotprod::BobRound1& msg) {
  if (j < 1 || j > cfg_.n)
    throw std::invalid_argument("answer_gain_query: bad participant id");
  const auto v_prime = initiator_vector(*cfg_.dot_field, cfg_.spec, v0_, w_,
                                        rho_, rho_j_[j - 1]);
  return dotprod::dot_product_alice(*cfg_.dot_field, msg, v_prime);
}

void Initiator::receive_submission(Submission s) {
  cfg_.spec.check_attributes(s.info);
  submissions_.push_back(std::move(s));
}

std::vector<std::size_t> Initiator::inconsistent_submissions() const {
  // Recompute gains from the submitted vectors; a submission is flagged when
  // its claimed rank ordering contradicts the recomputed gain ordering
  // against any other submission.
  std::vector<std::size_t> bad;
  for (const auto& a : submissions_) {
    const Int ga = gain(cfg_.spec, v0_, w_, a.info);
    bool flagged = false;
    for (const auto& b : submissions_) {
      if (a.participant == b.participant) continue;
      const Int gb = gain(cfg_.spec, v0_, w_, b.info);
      if ((a.claimed_rank < b.claimed_rank && ga < gb) ||
          (a.claimed_rank > b.claimed_rank && ga > gb)) {
        flagged = true;
        break;
      }
    }
    if (flagged) bad.push_back(a.participant);
  }
  return bad;
}

// ---------------- Participant ----------------

Participant::Participant(const FrameworkConfig& cfg, std::size_t id,
                         AttrVec info)
    : cfg_(cfg), id_(id), info_(std::move(info)) {
  cfg_.validate();
  cfg_.spec.check_attributes(info_);
  if (id_ < 1 || id_ > cfg_.n)
    throw std::invalid_argument("Participant: id must be in [1, n]");
}

const dotprod::BobRound1& Participant::gain_query(Rng& rng) {
  auto w_prime = participant_vector(*cfg_.dot_field, cfg_.spec, info_);
  // Scale the disguise dimension with the vector so the initiator's linear
  // system stays under-determined (dotprod::recommended_s).
  const std::size_t s = dotprod::disguise_dim(w_prime.size());
  dot_.emplace(*cfg_.dot_field, std::move(w_prime), s, rng);
  return dot_->round1();
}

void Participant::receive_gain_answer(const dotprod::AliceRound2& answer) {
  if (!dot_) throw std::logic_error("receive_gain_answer before gain_query");
  const Nat beta_field = dot_->finish(answer);
  dot_.reset();
  const Int beta_signed = cfg_.dot_field->from_centered(beta_field);
  beta_ = signed_to_unsigned(beta_signed, cfg_.spec.beta_bits());
}

const Elem& Participant::public_key(Rng& rng) {
  key_ = crypto::keygen(*cfg_.group, rng);
  const Nat& q = cfg_.group->order();
  if (q.is_odd()) {
    order_mont_.emplace(q);
    x_mont_ = order_mont_->to_mont(key_.x);
  }
  return key_.y;
}

crypto::SchnorrProof Participant::prove_key(std::size_t n_verifiers,
                                            Rng& rng) const {
  const auto t = crypto::schnorr_prove(*cfg_.group, key_.x, n_verifiers, rng);
  return crypto::schnorr_proof(*cfg_.group, t);
}

bool Participant::verify_peer_key(const Elem& y,
                                  const crypto::SchnorrProof& proof) const {
  return crypto::schnorr_verify(*cfg_.group, y, proof);
}

std::vector<Ciphertext> Participant::encrypt_beta(
    std::span<Rng* const> bit_rngs) const {
  const Group& g = *cfg_.group;
  const std::size_t l = cfg_.spec.beta_bits();
  if (bit_rngs.size() != l)
    throw std::invalid_argument("encrypt_beta: wrong stream count");
  std::vector<Nat> m(l), r(l);
  for (std::size_t b = 0; b < l; ++b) {
    if (beta_.bit(b)) m[b] = Nat{1};
    r[b] = g.random_nonzero_scalar(*bit_rngs[b]);
  }
  std::vector<Ciphertext> out(l);
  crypto::encrypt_exp_many(g, *joint_key_, m, r, out);
  return out;
}

// The comparison circuit (DESIGN.md §5e), evaluated through Group::dual_exp
// fusions. Per bit b, with own bits own_b and the peer's E(peer_b):
//
//   γ_b = own_b XOR peer_b             (own bit is plaintext)
//   ω_b = (l-b)·(1 - γ_b) + Σ_{v>b} γ_v  zero iff b is the most
//                                        significant differing bit
//   τ_b = ω_b + own_b                  zero iff the peer's bit is 1 there,
//                                        i.e. iff the peer's β is larger
//
// then τ_b is re-randomized before the set leaves this party: the
// homomorphic result is otherwise a deterministic function of the published
// ciphertexts and the own bits, which an adversary could test bit by bit
// (the paper's Lemma-3 simulator implicitly assumes fresh encryptions here;
// see DESIGN.md). Every element's order divides q, so the exponents q-1 and
// q-coeff collapse into inversions and coeff-width ladders. Each of the 2l
// peer components is inverted exactly once, in one Group::inv_many
// (Montgomery's trick on Schnorr groups), and γ⁻¹ is carried next to γ so
// no γ is inverted again. Every group exponentiation of the circuit runs in
// a batch: the l short ladders of the ω's as one dual_exp_many and one
// exp_many, and the l re-randomizations' combs as one exp_fixed_many and
// one exp_g_many (8 lanes per IFMA vector on SchnorrGroup and EcGroup).
// The naive ct_scale/ct_add_plain form of the same algebra is the
// differential oracle in tests/phase2_oracle_test.cpp;
// benchcore::model_he_ops states the interface calls this evaluation
// executes.
std::vector<Ciphertext> Participant::compare_against(
    const std::vector<Ciphertext>& peer_bits, Rng& rng) const {
  const runtime::ScopedOpTimer op_timer(runtime::CryptoOp::kCompareCircuit);
  const Group& g = *cfg_.group;
  const std::size_t l = cfg_.spec.beta_bits();
  if (peer_bits.size() != l)
    throw std::invalid_argument("compare_against: wrong bit count");

  // inv[b] = peer_b.c^{-1} and inv[l + b] = peer_b.cp^{-1}.
  std::vector<Elem> peer(2 * l), inv(2 * l);
  for (std::size_t b = 0; b < l; ++b) {
    peer[b] = peer_bits[b].c;
    peer[l + b] = peer_bits[b].cp;
  }
  g.inv_many(peer, inv);

  // γ and γ⁻¹ per bit. An own bit of 0 keeps γ = E(peer), so
  // γ⁻¹ = (inv(c), inv(cp)). For a set bit, γ = 1 - peer = E(peer)^(q-1) ·
  // E(1) = (inv(c)·g, inv(cp)), so γ⁻¹ = (c·g⁻¹, cp); gamma_inv stores it
  // without the g⁻¹, which the ω step below cancels against its g^coeff.
  std::vector<Ciphertext> gamma(l), gamma_inv(l);
  for (std::size_t b = 0; b < l; ++b) {
    Ciphertext flipped{.c = std::move(inv[b]), .cp = std::move(inv[l + b])};
    if (!beta_.bit(b)) {
      gamma[b] = peer_bits[b];
      gamma_inv[b] = std::move(flipped);
    } else {
      gamma[b] = Ciphertext{.c = g.mul(flipped.c, g.exp_g(Nat{1})),
                            .cp = std::move(flipped.cp)};
      gamma_inv[b] = peer_bits[b];
    }
  }

  // γ^(q-coeff) = (γ⁻¹)^coeff with coeff = l-b, tiny, so the fused
  // (γ⁻¹.c)^coeff · g^coeff runs a coeff-width Straus ladder. For a set
  // bit γ⁻¹.c = c·g⁻¹ and the g's cancel: the factor is c^coeff · g^0.
  std::vector<Elem> cs(l), cps(l), gens(l, g.generator()), c_pow(l),
      cp_pow(l);
  std::vector<Nat> coeff(l), g_coeff(l);
  for (std::size_t b = 0; b < l; ++b) {
    cs[b] = std::move(gamma_inv[b].c);
    cps[b] = std::move(gamma_inv[b].cp);
    coeff[b] = Nat{static_cast<mpz::Limb>(l - b)};
    if (!beta_.bit(b)) g_coeff[b] = coeff[b];
  }
  g.dual_exp_many(cs, coeff, gens, g_coeff, c_pow);
  g.exp_many(cps, coeff, cp_pow);

  std::vector<Ciphertext> tau(l);
  Ciphertext suffix{.c = g.identity(), .cp = g.identity()};
  for (std::size_t b = l; b-- > 0;) {
    const Ciphertext omega{.c = g.mul(c_pow[b], suffix.c),
                           .cp = g.mul(cp_pow[b], suffix.cp)};
    tau[b] = beta_.bit(b) ? ct_add_plain(g, omega, Nat{1}) : omega;
    suffix = ct_add(g, suffix, gamma[b]);
  }
  // The randomizers in the order a per-bit rerandomize draws them.
  std::vector<Nat> r(l);
  for (std::size_t b = l; b-- > 0;) r[b] = g.random_nonzero_scalar(rng);
  crypto::rerandomize_many(g, *joint_key_, tau, r);
  return tau;
}

void Participant::draw_hop(Rng& rng, std::span<Nat> r,
                           std::span<std::uint64_t> swaps) const {
  if (swaps.size() != r.size())
    throw std::invalid_argument("draw_hop: span sizes differ");
  const Group& g = *cfg_.group;
  for (Nat& ri : r) ri = g.random_nonzero_scalar(rng);
  for (std::size_t i = r.size(); i-- > 1;) swaps[i] = rng.below_u64(i + 1);
}

// The chain hop's ladders. Partial decryption and exponent randomization
// fuse into one dual_exp per ciphertext —
//
//   c1 = c / cp^x;  out = (c1^r, cp^r)
//      = (c^r · cp^(q - x·r mod q), cp^r)
//
// because every element's order divides q, so cp^(q-e) = cp^(-e). The
// ladders run through the group's batch forms (MontCtx and EcGroup run 8
// ladders per IFMA vector).
void Participant::hop_ladders(std::span<Ciphertext> cts,
                              std::span<const Nat> r) const {
  if (r.size() != cts.size())
    throw std::invalid_argument("hop_ladders: span sizes differ");
  const Group& g = *cfg_.group;
  const Nat& q = g.order();
  std::vector<Nat> e(cts.size());
  std::vector<Elem> c(cts.size()), cp(cts.size()), out(cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    // e = q - x·r mod q: one Montgomery product of x·R mod q with r.
    e[i] = Nat::sub(q, order_mont_ ? order_mont_->mul(x_mont_, r[i])
                                   : Nat::mul(key_.x, r[i]) % q);
    c[i] = std::move(cts[i].c);
    cp[i] = std::move(cts[i].cp);
  }
  g.dual_exp_many(c, r, cp, e, out);
  for (std::size_t i = 0; i < cts.size(); ++i) cts[i].c = std::move(out[i]);
  g.exp_many(cp, r, out);
  for (std::size_t i = 0; i < cts.size(); ++i) cts[i].cp = std::move(out[i]);
}

void Participant::permute_hop(std::span<Ciphertext> set,
                              std::span<const std::uint64_t> swaps) {
  if (swaps.size() != set.size())
    throw std::invalid_argument("permute_hop: span sizes differ");
  for (std::size_t i = set.size(); i-- > 1;) std::swap(set[i], set[swaps[i]]);
}

std::size_t Participant::count_zeros(std::span<const Ciphertext> cts) const {
  return crypto::count_zero_decryptions(*cfg_.group, key_.x, cts);
}

std::optional<Initiator::Submission> Participant::submission(
    std::size_t rank) const {
  if (rank > cfg_.k) return std::nullopt;
  return Initiator::Submission{.participant = id_, .claimed_rank = rank,
                               .info = info_};
}

// ---------------- launcher ----------------

FrameworkResult run_framework(const FrameworkConfig& cfg, const AttrVec& v0,
                              const AttrVec& w,
                              const std::vector<AttrVec>& infos, Rng& rng) {
  SsFrameworkResult run = launch(cfg, nullptr, v0, w, infos, rng);
  if (run.dropped_parties.empty()) return FrameworkResult(std::move(run));
  return degrade<FrameworkResult>(
      run, cfg, infos,
      [&](const FrameworkConfig& sub, const std::vector<AttrVec>& sub_infos) {
        return run_framework(sub, v0, w, sub_infos, rng);
      });
}

std::vector<Nat> phase1_betas(const FrameworkConfig& cfg, const AttrVec& v0,
                              const AttrVec& w,
                              const std::vector<AttrVec>& infos, Rng& rng) {
  if (infos.size() != cfg.n)
    throw std::invalid_argument("phase1_betas: one input per participant");
  const runtime::MetricsMute mute;
  const mpz::StreamFamily streams{rng};
  mpz::ChaChaRng setup =
      streams.stream(stream_id(StreamKind::kInitiatorSetup, 0, 0));
  Initiator initiator{cfg, v0, w, setup};
  std::vector<Nat> betas;
  for (std::size_t j = 1; j <= cfg.n; ++j) {
    Participant p{cfg, j, infos[j - 1]};
    mpz::ChaChaRng query = streams.stream(stream_id(StreamKind::kPhase1, j, 0));
    p.receive_gain_answer(initiator.answer_gain_query(j, p.gain_query(query)));
    betas.push_back(p.beta());
  }
  return betas;
}

const FpCtx& default_dot_field() {
  static const FpCtx field{Nat::from_dec(
      "578960446186580977117854925043439539266349923328202820197287920039565648"
      "19949")};
  return field;
}

std::vector<std::size_t> reference_ranks(const ProblemSpec& spec,
                                         const AttrVec& v0, const AttrVec& w,
                                         const std::vector<AttrVec>& infos) {
  std::vector<Int> gains;
  gains.reserve(infos.size());
  for (const auto& v : infos) gains.push_back(gain(spec, v0, w, v));
  std::vector<std::size_t> ranks(infos.size());
  for (std::size_t i = 0; i < infos.size(); ++i) {
    std::size_t above = 0;
    for (std::size_t j = 0; j < infos.size(); ++j)
      if (gains[j] > gains[i]) ++above;
    ranks[i] = above + 1;
  }
  return ranks;
}

}  // namespace ppgr::core
