// Tests for ElGamal (standard, exponential, distributed) and the Schnorr
// proof system, across both group instantiations.
#include <gtest/gtest.h>

#include "crypto/elgamal.h"
#include "crypto/schnorr_proof.h"

namespace ppgr::crypto {
namespace {

using group::GroupId;
using group::make_group;
using mpz::ChaChaRng;

class ElGamalOverGroups : public ::testing::TestWithParam<GroupId> {};

TEST_P(ElGamalOverGroups, StandardEncryptDecryptRoundTrip) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{10};
  const KeyPair kp = keygen(*g, rng);
  for (int i = 0; i < 5; ++i) {
    const Elem m = g->exp_g(g->random_scalar(rng));
    const Ciphertext ct = encrypt(*g, kp.y, m, rng);
    EXPECT_TRUE(g->eq(decrypt(*g, kp.x, ct), m));
  }
}

TEST_P(ElGamalOverGroups, EncryptionIsProbabilistic) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{11};
  const KeyPair kp = keygen(*g, rng);
  const Elem m = g->generator();
  const Ciphertext a = encrypt(*g, kp.y, m, rng);
  const Ciphertext b = encrypt(*g, kp.y, m, rng);
  EXPECT_FALSE(g->eq(a.c, b.c));
  EXPECT_FALSE(g->eq(a.cp, b.cp));
}

TEST_P(ElGamalOverGroups, ExponentialHomomorphism) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{12};
  const KeyPair kp = keygen(*g, rng);
  const Nat m1{17}, m2{25};
  const Ciphertext e1 = encrypt_exp(*g, kp.y, m1, rng);
  const Ciphertext e2 = encrypt_exp(*g, kp.y, m2, rng);
  // E(17) ∘ E(25) decrypts to g^42.
  EXPECT_TRUE(g->eq(decrypt_exp(*g, kp.x, ct_add(*g, e1, e2)), g->exp_g(Nat{42})));
  // E(25) - E(17) -> g^8.
  EXPECT_TRUE(g->eq(decrypt_exp(*g, kp.x, ct_sub(*g, e2, e1)), g->exp_g(Nat{8})));
  // E(17)^3 -> g^51.
  EXPECT_TRUE(
      g->eq(decrypt_exp(*g, kp.x, ct_scale(*g, e1, Nat{3})), g->exp_g(Nat{51})));
  // plaintext addition: E(17) + 5 -> g^22.
  EXPECT_TRUE(g->eq(decrypt_exp(*g, kp.x, ct_add_plain(*g, e1, Nat{5})),
                    g->exp_g(Nat{22})));
}

TEST_P(ElGamalOverGroups, ZeroTest) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{13};
  const KeyPair kp = keygen(*g, rng);
  EXPECT_TRUE(decrypts_to_zero(*g, kp.x, encrypt_exp(*g, kp.y, Nat{}, rng)));
  EXPECT_FALSE(decrypts_to_zero(*g, kp.x, encrypt_exp(*g, kp.y, Nat{1}, rng)));
  // Subtracting equal plaintexts yields an encryption of zero.
  const Ciphertext a = encrypt_exp(*g, kp.y, Nat{99}, rng);
  const Ciphertext b = encrypt_exp(*g, kp.y, Nat{99}, rng);
  EXPECT_TRUE(decrypts_to_zero(*g, kp.x, ct_sub(*g, a, b)));
}

TEST_P(ElGamalOverGroups, RerandomizePreservesPlaintext) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{14};
  const KeyPair kp = keygen(*g, rng);
  const Ciphertext ct = encrypt_exp(*g, kp.y, Nat{7}, rng);
  const Ciphertext rr = rerandomize(*g, kp.y, ct, rng);
  EXPECT_FALSE(g->eq(rr.c, ct.c));  // fresh randomness
  EXPECT_TRUE(g->eq(decrypt_exp(*g, kp.x, rr), g->exp_g(Nat{7})));
}

TEST_P(ElGamalOverGroups, ExpRandomizeKeepsZeroKillsNonzero) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{15};
  const KeyPair kp = keygen(*g, rng);
  const Nat r = g->random_nonzero_scalar(rng);
  // zero stays zero.
  const Ciphertext z = encrypt_exp(*g, kp.y, Nat{}, rng);
  EXPECT_TRUE(decrypts_to_zero(*g, kp.x, exp_randomize(*g, z, r)));
  // nonzero m becomes r*m — still nonzero, but no longer g^m.
  const Ciphertext nz = encrypt_exp(*g, kp.y, Nat{5}, rng);
  const Ciphertext masked = exp_randomize(*g, nz, r);
  EXPECT_FALSE(decrypts_to_zero(*g, kp.x, masked));
  const Nat expected = Nat::mul(Nat{5}, r) % g->order();
  EXPECT_TRUE(g->eq(decrypt_exp(*g, kp.x, masked), g->exp_g(expected)));
}

TEST_P(ElGamalOverGroups, DistributedDecryptionChain) {
  // n parties, joint key; partial decryptions in arbitrary order compose to
  // a full decryption — the mechanism of framework step 8.
  const auto g = make_group(GetParam());
  ChaChaRng rng{16};
  constexpr std::size_t kParties = 5;
  std::vector<KeyPair> keys;
  std::vector<Elem> ys;
  for (std::size_t i = 0; i < kParties; ++i) {
    keys.push_back(keygen(*g, rng));
    ys.push_back(keys.back().y);
  }
  const Elem y = joint_public_key(*g, ys);

  Ciphertext ct = encrypt_exp(*g, y, Nat{123}, rng);
  // Parties 1..n-1 partially decrypt (shuffled order), party 0 finishes.
  for (std::size_t i = kParties; i-- > 1;) ct = partial_decrypt(*g, keys[i].x, ct);
  EXPECT_TRUE(g->eq(decrypt_exp(*g, keys[0].x, ct), g->exp_g(Nat{123})));
}

TEST_P(ElGamalOverGroups, PartialDecryptCommutesWithExpRandomize) {
  // The step-8 pipeline interleaves partial decryption and exponent
  // randomization across hops; verify the interleaving is sound.
  const auto g = make_group(GetParam());
  ChaChaRng rng{17};
  std::vector<KeyPair> keys{keygen(*g, rng), keygen(*g, rng), keygen(*g, rng)};
  const std::vector<Elem> ys{keys[0].y, keys[1].y, keys[2].y};
  const Elem y = joint_public_key(*g, ys);

  Ciphertext zero_ct = encrypt_exp(*g, y, Nat{}, rng);
  Ciphertext nz_ct = encrypt_exp(*g, y, Nat{9}, rng);
  for (std::size_t hop = 1; hop < keys.size(); ++hop) {
    zero_ct = exp_randomize(*g, partial_decrypt(*g, keys[hop].x, zero_ct),
                            g->random_nonzero_scalar(rng));
    nz_ct = exp_randomize(*g, partial_decrypt(*g, keys[hop].x, nz_ct),
                          g->random_nonzero_scalar(rng));
  }
  EXPECT_TRUE(decrypts_to_zero(*g, keys[0].x, zero_ct));
  EXPECT_FALSE(decrypts_to_zero(*g, keys[0].x, nz_ct));
}

TEST_P(ElGamalOverGroups, CiphertextBytes) {
  const auto g = make_group(GetParam());
  EXPECT_EQ(ciphertext_bytes(*g), 2 * g->element_bytes());
}

INSTANTIATE_TEST_SUITE_P(Groups, ElGamalOverGroups,
                         ::testing::Values(GroupId::kDlTest256,
                                           GroupId::kEcP192),
                         [](const auto& info) {
                           std::string n = group::to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

// ---- Schnorr proofs ----

class SchnorrOverGroups : public ::testing::TestWithParam<GroupId> {};

TEST_P(SchnorrOverGroups, CompletenessSingleAndMultiVerifier) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{20};
  for (std::size_t n_verifiers : {1u, 2u, 7u}) {
    const KeyPair kp = keygen(*g, rng);
    const SchnorrTranscript t = schnorr_prove(*g, kp.x, n_verifiers, rng);
    EXPECT_EQ(t.challenges.size(), n_verifiers);
    EXPECT_TRUE(schnorr_verify(*g, kp.y, t));
  }
}

TEST_P(SchnorrOverGroups, SoundnessWrongWitnessFails) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{21};
  const KeyPair kp = keygen(*g, rng);
  // Prover uses a wrong witness for y.
  const Nat wrong = Nat::add(kp.x, Nat{1}) % g->order();
  const SchnorrProverState st = schnorr_commit(*g, rng);
  SchnorrTranscript t;
  t.commitment = st.commitment;
  t.challenges = {schnorr_challenge(*g, rng)};
  t.response = schnorr_respond(*g, st, wrong, t.challenges);
  EXPECT_FALSE(schnorr_verify(*g, kp.y, t));
}

TEST_P(SchnorrOverGroups, TamperedTranscriptFails) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{22};
  const KeyPair kp = keygen(*g, rng);
  SchnorrTranscript t = schnorr_prove(*g, kp.x, 3, rng);
  t.response = Nat::add(t.response, Nat{1}) % g->order();
  EXPECT_FALSE(schnorr_verify(*g, kp.y, t));
}

TEST_P(SchnorrOverGroups, ExtractorRecoversWitness) {
  // Special soundness: rewind the prover (same commitment, different
  // challenges) and extract x — the mechanism the paper's Lemma 3 simulator
  // uses to learn colluders' keys.
  const auto g = make_group(GetParam());
  ChaChaRng rng{23};
  const KeyPair kp = keygen(*g, rng);
  const SchnorrProverState st = schnorr_commit(*g, rng);
  SchnorrTranscript t1, t2;
  t1.commitment = t2.commitment = st.commitment;
  t1.challenges = {schnorr_challenge(*g, rng), schnorr_challenge(*g, rng)};
  t2.challenges = {schnorr_challenge(*g, rng), schnorr_challenge(*g, rng)};
  t1.response = schnorr_respond(*g, st, kp.x, t1.challenges);
  t2.response = schnorr_respond(*g, st, kp.x, t2.challenges);
  EXPECT_EQ(schnorr_extract(*g, t1, t2), kp.x % g->order());
}

TEST_P(SchnorrOverGroups, ExtractorPreconditions) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{24};
  const KeyPair kp = keygen(*g, rng);
  const SchnorrTranscript t1 = schnorr_prove(*g, kp.x, 1, rng);
  const SchnorrTranscript t2 = schnorr_prove(*g, kp.x, 1, rng);
  // Different commitments rejected.
  EXPECT_THROW((void)schnorr_extract(*g, t1, t2), std::invalid_argument);
  // Identical transcripts rejected (equal challenges).
  EXPECT_THROW((void)schnorr_extract(*g, t1, t1), std::invalid_argument);
}

TEST_P(SchnorrOverGroups, SimulatedTranscriptsVerify) {
  // HVZK: the simulator produces accepting transcripts without the witness.
  const auto g = make_group(GetParam());
  ChaChaRng rng{25};
  const KeyPair kp = keygen(*g, rng);
  for (int i = 0; i < 5; ++i) {
    const SchnorrTranscript t = schnorr_simulate(*g, kp.y, 3, rng);
    EXPECT_TRUE(schnorr_verify(*g, kp.y, t));
  }
}

INSTANTIATE_TEST_SUITE_P(Groups, SchnorrOverGroups,
                         ::testing::Values(GroupId::kDlTest256,
                                           GroupId::kEcP192),
                         [](const auto& info) {
                           std::string n = group::to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

}  // namespace
}  // namespace ppgr::crypto
