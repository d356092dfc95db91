#include "core/framework.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/party_driver.h"
#include "core/streams.h"

namespace ppgr::core {

using crypto::ct_add;
using crypto::ct_add_plain;
using crypto::encrypt_exp;
using crypto::rerandomize;

void FrameworkConfig::validate() const {
  spec.validate();
  if (n < 2) throw std::invalid_argument("FrameworkConfig: need n >= 2");
  if (k < 1 || k > n) throw std::invalid_argument("FrameworkConfig: bad k");
  if (group == nullptr || dot_field == nullptr)
    throw std::invalid_argument("FrameworkConfig: group/dot_field not set");
  if (dot_s < 2) throw std::invalid_argument("FrameworkConfig: dot_s >= 2");
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
  const std::size_t s =
      std::max(cfg_.dot_s, dotprod::recommended_s(w_prime.size()));
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

Ciphertext Participant::encrypt_beta_bit(std::size_t b, Rng& rng) const {
  const Nat m = beta_.bit(b) ? Nat{1} : Nat{};
  return encrypt_exp(*cfg_.group, joint_key_, m, rng);
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
// q-coeff collapse into inversions and coeff-width ladders. The naive
// ct_scale/ct_add_plain form of the same algebra is the differential oracle
// in tests/phase2_oracle_test.cpp; benchcore::model_he_ops states the
// interface calls this evaluation executes.
std::vector<Ciphertext> Participant::compare_against(
    const std::vector<Ciphertext>& peer_bits, Rng& rng) const {
  const runtime::ScopedOpTimer op_timer(runtime::CryptoOp::kCompareCircuit);
  const Group& g = *cfg_.group;
  const std::size_t l = cfg_.spec.beta_bits();
  if (peer_bits.size() != l)
    throw std::invalid_argument("compare_against: wrong bit count");

  // γ = 1 - peer for an own set bit: E(peer)^(q-1) = E(peer)^{-1}.
  std::vector<Ciphertext> gamma;
  gamma.reserve(l);
  for (std::size_t b = 0; b < l; ++b) {
    if (!beta_.bit(b)) {
      gamma.push_back(peer_bits[b]);
    } else {
      gamma.push_back(Ciphertext{.c = g.mul(g.inv(peer_bits[b].c),
                                            g.exp_g(Nat{1})),
                                 .cp = g.inv(peer_bits[b].cp)});
    }
  }

  std::vector<Ciphertext> tau(l);
  Ciphertext suffix{.c = g.identity(), .cp = g.identity()};
  for (std::size_t b = l; b-- > 0;) {
    const Nat coeff{static_cast<mpz::Limb>(l - b)};
    // γ^(q-coeff) = inv(γ)^coeff, and coeff = l-b is tiny, so the fused
    // inv(γ.c)^coeff · g^coeff runs a coeff-width Straus ladder.
    const Ciphertext omega{
        .c = g.mul(g.dual_exp(g.inv(gamma[b].c), coeff, g.generator(), coeff),
                   suffix.c),
        .cp = g.mul(g.exp(g.inv(gamma[b].cp), coeff), suffix.cp)};
    tau[b] = beta_.bit(b) ? ct_add_plain(g, omega, Nat{1}) : omega;
    tau[b] = rerandomize(g, joint_key_, tau[b], rng);
    suffix = ct_add(g, suffix, gamma[b]);
  }
  return tau;
}

// One chain hop. Partial decryption and exponent randomization fuse into
// one fused dual_exp per ciphertext —
//
//   c1 = c / cp^x;  out = (c1^r, cp^r)
//      = (c^r · cp^(q - x·r mod q), cp^r)
//
// because every element's order divides q, so cp^(q-e) = cp^(-e). One
// random_nonzero_scalar per ciphertext, in set order, then the Fisher–Yates
// draws with the party's private randomness.
void Participant::shuffle_hop(CipherSet& set, Rng& rng) const {
  const runtime::ScopedOpTimer op_timer(runtime::CryptoOp::kShuffleHop);
  const Group& g = *cfg_.group;
  const Nat& q = g.order();
  for (Ciphertext& ct : set) {
    const Nat r = g.random_nonzero_scalar(rng);
    const Nat e = Nat::sub(q, Nat::mul(key_.x, r) % q);
    ct = Ciphertext{.c = g.dual_exp(ct.c, r, ct.cp, e),
                    .cp = g.exp(ct.cp, r)};
  }
  for (std::size_t i = set.size(); i-- > 1;)
    std::swap(set[i], set[rng.below_u64(i + 1)]);
}

std::size_t Participant::count_zeros(std::span<const Ciphertext> cts) const {
  std::size_t zeros = 0;
  for (const Ciphertext& ct : cts) {
    if (crypto::decrypts_to_zero(*cfg_.group, key_.x, ct)) ++zeros;
  }
  return zeros;
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
