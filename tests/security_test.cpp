// Security-property tests mirroring Sec. III-C and Sec. VI-A of the paper.
//
// These are mechanical/statistical checks of the constructions the formal
// proofs rely on — not proofs themselves:
//  - Lemma 1 (private input hiding): the adversary's linear system stays
//    under-determined; β values pool into an under-determined system.
//  - Lemma 2/3 (gain hiding): phase-2 views are re-randomized (no
//    deterministic fingerprint of β), non-zero τ plaintexts are destroyed by
//    the exponent randomization, and the Lemma-3 simulator's replacement
//    sets are indistinguishable in everything the adversary can measure.
//  - Lemma 4 (identity unlinkability): after the decrypt-shuffle chain, the
//    position of the zero inside a returned set is uniform (chi-square), and
//    swapping two honest participants' inputs leaves every observable of the
//    chain unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/framework.h"
#include "dotprod/dot_product.h"
#include "crypto/elgamal.h"
#include "mpz/rng.h"

namespace ppgr::core {
namespace {

using crypto::Ciphertext;
using group::GroupId;
using group::make_group;
using mpz::ChaChaRng;
using mpz::Nat;

ProblemSpec tiny_spec() {
  return ProblemSpec{.m = 2, .t = 1, .d1 = 4, .d2 = 3, .h = 4};
}

// Step 6 for one party: E(β) bit by bit, LSB first.
std::vector<Ciphertext> encrypt_bits(const Participant& p, std::size_t l,
                                     mpz::Rng& rng) {
  std::vector<Ciphertext> bits;
  for (std::size_t b = 0; b < l; ++b)
    bits.push_back(p.encrypt_beta_bit(b, rng));
  return bits;
}

FrameworkConfig make_config(const group::Group& g, std::size_t n) {
  FrameworkConfig cfg;
  cfg.spec = tiny_spec();
  cfg.n = n;
  cfg.k = 1;
  cfg.group = &g;
  cfg.dot_field = &default_dot_field();
  cfg.dot_s = 4;
  return cfg;
}

// ---------- Lemma 1: private input hiding ----------

TEST(PrivateInputHiding, DotProductSystemUnderdetermined) {
  // The initiator sees (QX, c', g, a, h): s*d + 2d + 2 equations about
  // Bob's unknowns (Q: s^2, X's random rows: (s-1)*d, f: d, R1..R3, w: d).
  // For all supported parameters the unknowns strictly exceed the
  // equations, which is the [2] security argument.
  for (std::size_t d : {2u, 8u, 32u, 128u, 241u}) {
    const std::size_t s = dotprod::recommended_s(d);
    const std::size_t equations = s * d + 2 * d;
    const std::size_t unknowns = s * s + s * d + d + 3;
    EXPECT_GT(unknowns, equations) << "s=" << s << " d=" << d;
    // And the recommendation is minimal-ish: s-1 would not suffice once the
    // rule actually kicked in.
    if (s > 2) {
      EXPECT_LE((s - 1) * (s - 1) + 3, d);
    }
  }
}

TEST(PrivateInputHiding, BetaPoolingStaysUnderdetermined) {
  // An adversary pooling all n β values faces n equations
  // β_j = ρ p_j + ρ_j in n+1 unknowns (ρ and the n masks ρ_j) even if she
  // somehow knew every p_j — and the p_j themselves are unknown too.
  for (std::size_t n : {2u, 10u, 100u}) {
    const std::size_t equations = n;
    const std::size_t unknowns = 1 + n;  // ρ and ρ_j
    EXPECT_GT(unknowns, equations);
  }
}

TEST(PrivateInputHiding, InitiatorViewVariesAcrossRunsForSameInput) {
  // The same participant vector must not produce a repeatable view
  // (otherwise the initiator could fingerprint inputs across events).
  const auto g = make_group(GroupId::kDlTest256);
  const FrameworkConfig cfg = make_config(*g, 2);
  ChaChaRng rng{200};
  const AttrVec info{3, 5};
  Participant p1{cfg, 1, info};
  Participant p2{cfg, 2, info};
  const auto& q1 = p1.gain_query(rng);
  const auto& q2 = p2.gain_query(rng);
  EXPECT_NE(q1.qx, q2.qx);
  EXPECT_NE(q1.cprime, q2.cprime);
  EXPECT_NE(q1.gvec, q2.gvec);
}

// ---------- Lemma 2/3: gain hiding ----------

TEST(GainHiding, ComparisonSetsCarryNoDeterministicFingerprint) {
  // Step 7 output must be freshly randomized: computing the same comparison
  // twice yields different ciphertexts, so an adversary cannot test bit
  // hypotheses against the published E(β_i) bits.
  const auto g = make_group(GroupId::kDlTest256);
  const FrameworkConfig cfg = make_config(*g, 2);
  ChaChaRng rng{201};
  Initiator init{cfg, {1, 2}, {3, 3}, rng};
  Participant a{cfg, 1, {3, 9}};
  Participant b{cfg, 2, {1, 4}};
  for (auto* p : {&a, &b}) {
    const auto& q = p->gain_query(rng);
    p->receive_gain_answer(init.answer_gain_query(p->id(), q));
  }
  const auto kp = crypto::keygen(*g, rng);
  a.set_joint_key(kp.y);
  b.set_joint_key(kp.y);
  const auto bits_b = encrypt_bits(b, cfg.spec.beta_bits(), rng);
  const auto tau1 = a.compare_against(bits_b, rng);
  const auto tau2 = a.compare_against(bits_b, rng);
  ASSERT_EQ(tau1.size(), tau2.size());
  for (std::size_t t = 0; t < tau1.size(); ++t) {
    EXPECT_FALSE(g->eq(tau1[t].c, tau2[t].c)) << "bit " << t;
  }
  // And none of them equals the input ciphertext it was derived from.
  for (std::size_t t = 0; t < tau1.size(); ++t) {
    EXPECT_FALSE(g->eq(tau1[t].c, bits_b[t].c));
  }
}

TEST(GainHiding, NonzeroTauValuesAreDestroyedByChain) {
  // After one shuffle hop, a non-zero plaintext m becomes r·m for secret
  // random r: the adversary who somehow guessed m cannot confirm the guess.
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{202};
  const auto k1 = crypto::keygen(*g, rng);
  const auto k2 = crypto::keygen(*g, rng);
  const std::vector<group::Elem> ys{k1.y, k2.y};
  const auto joint = crypto::joint_public_key(*g, ys);
  int confirmed = 0;
  for (int iter = 0; iter < 40; ++iter) {
    const Nat m{7};
    Ciphertext ct = crypto::encrypt_exp(*g, joint, m, rng);
    // Party 2's hop.
    ct = crypto::exp_randomize(*g, crypto::partial_decrypt(*g, k2.x, ct),
                               g->random_nonzero_scalar(rng));
    // Party 1 decrypts; does it still look like g^7?
    const auto plain = crypto::decrypt_exp(*g, k1.x, ct);
    if (g->eq(plain, g->exp_g(m))) ++confirmed;
    EXPECT_FALSE(g->is_identity(plain));  // still provably non-zero
  }
  EXPECT_LE(confirmed, 1);  // chance collision only
}

TEST(GainHiding, Lemma3SimulatorSetsAreObservationEquivalent) {
  // The Lemma-3 simulator replaces a real comparison set with fresh
  // encryptions of (same number of zeros, random nonzeros), permuted. Check
  // that every adversary-observable statistic matches: set size, ciphertext
  // size, zero count after full decryption.
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{203};
  const auto kp = crypto::keygen(*g, rng);
  const std::size_t l = 12;

  // "Real" set: exactly one zero among l values (the τ structure).
  std::vector<Ciphertext> real_set;
  const std::size_t zero_pos = 5;
  for (std::size_t t = 0; t < l; ++t) {
    const Nat m = (t == zero_pos) ? Nat{} : Nat{static_cast<mpz::Limb>(t + 3)};
    real_set.push_back(crypto::encrypt_exp(*g, kp.y, m, rng));
  }
  // Simulator set: one zero, random nonzeros, random positions.
  std::vector<Ciphertext> sim_set;
  const std::size_t sim_zero = rng.below_u64(l);
  for (std::size_t t = 0; t < l; ++t) {
    const Nat m = (t == sim_zero) ? Nat{} : g->random_nonzero_scalar(rng);
    sim_set.push_back(crypto::encrypt_exp(*g, kp.y, m, rng));
  }
  auto zero_count = [&](const std::vector<Ciphertext>& set) {
    std::size_t zeros = 0;
    for (const auto& ct : set)
      zeros += crypto::decrypts_to_zero(*g, kp.x, ct) ? 1 : 0;
    return zeros;
  };
  EXPECT_EQ(real_set.size(), sim_set.size());
  EXPECT_EQ(zero_count(real_set), zero_count(sim_set));
}

// ---------- Lemma 4: identity unlinkability ----------

// Runs phase 2 manually for n=3 parties with given β bit patterns and
// returns the position of the zero in party 1's returned set (or l if none).
std::size_t chain_zero_position(const group::Group& g, std::size_t l,
                                const Nat& beta1, const Nat& beta2,
                                ChaChaRng& rng) {
  // Two participants suffice to exercise the chain mechanics.
  const auto k1 = crypto::keygen(g, rng);
  const auto k2 = crypto::keygen(g, rng);
  const std::vector<group::Elem> ys{k1.y, k2.y};
  const auto joint = crypto::joint_public_key(g, ys);

  // P1 compares against P2's bits: zero at the most significant differing
  // bit position iff beta2 > beta1 (DGK circuit, same formulas as
  // Participant::compare_against — reproduced here to drive arbitrary bit
  // patterns).
  std::vector<Ciphertext> bits2;
  for (std::size_t b = 0; b < l; ++b)
    bits2.push_back(crypto::encrypt_exp(g, joint,
                                        beta2.bit(b) ? Nat{1} : Nat{}, rng));
  const Nat& q = g.order();
  std::vector<Ciphertext> set;
  Ciphertext suffix{.c = g.identity(), .cp = g.identity()};
  std::vector<Ciphertext> tau(l);
  for (std::size_t b = l; b-- > 0;) {
    Ciphertext gamma =
        beta1.bit(b)
            ? crypto::ct_add_plain(
                  g, crypto::ct_scale(g, bits2[b], Nat::sub(q, Nat{1})), Nat{1})
            : bits2[b];
    const Nat coeff{static_cast<mpz::Limb>(l - b)};
    Ciphertext omega = crypto::ct_scale(g, gamma, Nat::sub(q, coeff));
    omega = crypto::ct_add_plain(g, omega, coeff);
    omega = crypto::ct_add(g, omega, suffix);
    tau[b] = beta1.bit(b) ? crypto::ct_add_plain(g, omega, Nat{1}) : omega;
    suffix = crypto::ct_add(g, suffix, gamma);
  }
  set = std::move(tau);

  // P2's chain hop: partial decrypt, randomize, permute.
  for (auto& ct : set) {
    ct = crypto::exp_randomize(g, crypto::partial_decrypt(g, k2.x, ct),
                               g.random_nonzero_scalar(rng));
  }
  for (std::size_t i = set.size(); i-- > 1;)
    std::swap(set[i], set[rng.below_u64(i + 1)]);

  // P1 removes her own layer and looks for the zero.
  for (std::size_t pos = 0; pos < set.size(); ++pos) {
    if (crypto::decrypts_to_zero(g, k1.x, set[pos])) return pos;
  }
  return l;
}

TEST(IdentityUnlinkability, ZeroPositionIsUniformAfterShuffle) {
  // β2 > β1 so exactly one zero exists; its position in the returned set
  // must be uniform over [0, l) — otherwise the position would leak which
  // bit differed, i.e. information about β beyond the rank.
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{204};
  const std::size_t l = 8;
  const Nat beta1{0b00010110};
  const Nat beta2{0b10010110};  // differs at the MSB -> pre-shuffle zero at 7
  std::vector<std::size_t> histogram(l, 0);
  const int kTrials = 160;
  for (int i = 0; i < kTrials; ++i) {
    const std::size_t pos = chain_zero_position(*g, l, beta1, beta2, rng);
    ASSERT_LT(pos, l);
    ++histogram[pos];
  }
  // Chi-square against uniform: 7 dof, p=0.001 critical value 24.32.
  const double expected = static_cast<double>(kTrials) / l;
  double chi2 = 0;
  for (const auto count : histogram) {
    const double d = static_cast<double>(count) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 24.32) << "zero position not uniform";
}

TEST(IdentityUnlinkability, NoZeroWhenPeerSmallerRegardlessOfShuffle) {
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{205};
  const std::size_t l = 8;
  for (int i = 0; i < 10; ++i) {
    // β2 < β1: no zero must survive.
    EXPECT_EQ(chain_zero_position(*g, l, Nat{200}, Nat{3}, rng), l);
  }
}

TEST(IdentityUnlinkability, SwappedAssignmentsGiveIdenticalObservables) {
  // Def. 7's game: assign (β_b, β_{1-b}) to two honest participants. The
  // adversary observes everything except the final ranks. With full runs of
  // the real framework we check the coarse observables are identical across
  // the two assignments: trace shape (rounds, per-message sizes) and the
  // multiset of ranks.
  const auto g = make_group(GroupId::kDlTest256);
  FrameworkConfig cfg = make_config(*g, 3);
  const AttrVec v0{1, 2}, w{3, 3};
  // Two candidate vectors for the honest pair + one adversary-chosen vector.
  const AttrVec va{3, 9}, vb{2, 4}, adversary{1, 1};
  ChaChaRng rng1{206}, rng2{206};
  const auto run_b0 =
      run_framework(cfg, v0, w, {va, vb, adversary}, rng1);
  const auto run_b1 =
      run_framework(cfg, v0, w, {vb, va, adversary}, rng2);

  EXPECT_EQ(run_b0.trace.rounds(), run_b1.trace.rounds());
  EXPECT_EQ(run_b0.trace.message_count(), run_b1.trace.message_count());
  ASSERT_EQ(run_b0.trace.transfers().size(), run_b1.trace.transfers().size());
  for (std::size_t i = 0; i < run_b0.trace.transfers().size(); ++i) {
    EXPECT_EQ(run_b0.trace.transfers()[i].bytes,
              run_b1.trace.transfers()[i].bytes);
  }
  // Rank multiset identical; the identity holding each rank swaps.
  auto r0 = run_b0.ranks, r1 = run_b1.ranks;
  EXPECT_EQ(r0[2], r1[2]);  // adversary's own rank is the same
  std::sort(r0.begin(), r0.end());
  std::sort(r1.begin(), r1.end());
  EXPECT_EQ(r0, r1);
}

// ---------- IND-CPA game mechanics (Lemma 2) ----------

TEST(IndCpa, BitwiseEncryptionResistsNaiveDistinguishers) {
  // Play the Def.-in-Sec.-IV-C game with two fixed plaintexts and a family
  // of cheap distinguishers (byte parities, byte sums of the first
  // component). Each must stay near 1/2 — a smoke test that no trivial
  // structure leaks, NOT a proof of IND-CPA (which Lemma 2 reduces to DDH).
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{207};
  const auto kp = crypto::keygen(*g, rng);
  const int kTrials = 300;
  int wins_parity = 0, wins_sum = 0;
  for (int i = 0; i < kTrials; ++i) {
    const bool b = rng.coin();
    const Nat m = b ? Nat{1} : Nat{};
    const auto ct = crypto::encrypt_exp(*g, kp.y, m, rng);
    const auto bytes = g->serialize(ct.c);
    const bool guess_parity = bytes.back() & 1;
    unsigned sum = 0;
    for (const auto byte : bytes) sum += byte;
    const bool guess_sum = sum & 1;
    wins_parity += (guess_parity == b) ? 1 : 0;
    wins_sum += (guess_sum == b) ? 1 : 0;
  }
  // Binomial(300, 1/2): 5-sigma band is 150 ± 43.
  EXPECT_NEAR(wins_parity, kTrials / 2, 43);
  EXPECT_NEAR(wins_sum, kTrials / 2, 43);
}

// ---------- Sec. IV-E: soundness under active wire tampering ----------
// A tampered frame re-encodes with a valid CRC, so the channel layer cannot
// catch it — the cryptographic layer must. In phase 2 the Schnorr proofs of
// key knowledge (and the element decoders behind them) are that layer: a
// bit-flipped proof or ciphertext must surface as a typed ProtocolFault at
// phase 2, never as an accepted proof or a silent wrong ranking.

TEST(ActiveTampering, TamperedPhase2TrafficIsATypedFault) {
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{501};
  FrameworkConfig cfg = make_config(*g, 4);
  net::FaultPlanConfig fpc;
  fpc.seed = 9;
  fpc.tamper = 1.0;   // flip one bit of every message...
  fpc.only_phase = 2; // ...but only in phase 2
  const net::FaultPlan plan{fpc};
  cfg.fault_plan = &plan;

  const AttrVec v0{1, 2}, w{3, 1};
  std::vector<AttrVec> infos;
  for (std::size_t j = 0; j < cfg.n; ++j)
    infos.push_back(AttrVec{rng.below_u64(1u << cfg.spec.d1),
                            rng.below_u64(1u << cfg.spec.d1)});
  try {
    (void)run_framework(cfg, v0, w, infos, rng);
    FAIL() << "tampered phase-2 proofs were accepted";
  } catch (const ProtocolFault& pf) {
    EXPECT_EQ(pf.info().phase, runtime::Phase::kPhase2);
    EXPECT_GT(pf.report().stats.injected[static_cast<std::size_t>(
                  net::FaultKind::kTamper)],
              0u);
    // The channel saw nothing: detection happened above it.
    EXPECT_EQ(pf.report().stats.crc_detected, 0u);
  }
}

TEST(ActiveTampering, UntamperedPhasesStillVerify) {
  // Control: the same plan object restricted to a phase the run never
  // reaches with tampering (phase 3 carries the anonymized submissions) may
  // fault — but phases 1-2 tampering off means the proofs verify and the
  // protocol's own checks pass. This pins that the typed fault above is
  // caused by the tampering, not by the fault plumbing itself.
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{502};
  FrameworkConfig cfg = make_config(*g, 4);
  net::FaultPlanConfig fpc;
  fpc.seed = 9;
  fpc.delay = 0.5;  // enabled plan, payload-preserving faults only
  const net::FaultPlan plan{fpc};
  cfg.fault_plan = &plan;
  const AttrVec v0{1, 2}, w{3, 1};
  std::vector<AttrVec> infos;
  for (std::size_t j = 0; j < cfg.n; ++j)
    infos.push_back(AttrVec{rng.below_u64(1u << cfg.spec.d1),
                            rng.below_u64(1u << cfg.spec.d1)});
  const FrameworkResult res = run_framework(cfg, v0, w, infos, rng);
  EXPECT_EQ(res.ranks.size(), cfg.n);
}

}  // namespace
}  // namespace ppgr::core
