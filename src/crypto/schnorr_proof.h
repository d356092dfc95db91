// Honest-verifier zero-knowledge proof of knowledge of a discrete logarithm
// (Schnorr identification, Sec. IV-E of the paper), including the paper's
// extension to n verifiers: every verifier contributes a challenge c_j, the
// prover answers z = r + x·Σc_j mod q, and each verifier checks
// g^z == h · y^{Σc_j}.
//
// The transcript type and the knowledge extractor mirror the special-
// soundness argument in the paper (two accepting transcripts on the same
// commitment reveal x); the extractor is exercised both by tests and by the
// security-game harness in core/, which replays the simulator constructions
// of Lemmas 3 and 4.
#pragma once

#include <vector>

#include "group/group.h"

namespace ppgr::crypto {

using group::Elem;
using group::Group;
using mpz::Nat;
using mpz::Rng;

/// One complete run of the (possibly multi-verifier) protocol.
struct SchnorrTranscript {
  Elem commitment;              // h = g^r
  std::vector<Nat> challenges;  // c_j from each verifier
  Nat response;                 // z = r + x·Σc_j mod q
};

/// What a verifier needs of a transcript: the commitment, the challenge sum
/// Σc_j mod q and the response — the multi-verifier proof message.
struct SchnorrProof {
  Elem commitment;
  Nat challenge_sum;
  Nat response;
};

/// Folds a transcript's challenges into their sum mod q.
[[nodiscard]] SchnorrProof schnorr_proof(const Group& g,
                                         const SchnorrTranscript& t);

/// Prover state between commit and respond.
struct SchnorrProverState {
  Nat r;
  Elem commitment;
};

/// Step 1 (prover): commit to fresh randomness.
[[nodiscard]] SchnorrProverState schnorr_commit(const Group& g, Rng& rng);

/// Step 2 (each verifier): sample a challenge.
[[nodiscard]] Nat schnorr_challenge(const Group& g, Rng& rng);

/// Step 3 (prover): respond to the combined challenges with witness x.
[[nodiscard]] Nat schnorr_respond(const Group& g, const SchnorrProverState& st,
                                  const Nat& x, std::span<const Nat> challenges);

/// Step 4 (each verifier): check g^z == h · y^{Σc_j}.
[[nodiscard]] bool schnorr_verify(const Group& g, const Elem& y,
                                  const SchnorrProof& p);

/// Convenience: run the whole protocol locally with `n_verifiers` honest
/// verifiers and return the transcript (used in the HBC simulation, where
/// the interaction is honest by assumption).
[[nodiscard]] SchnorrTranscript schnorr_prove(const Group& g, const Nat& x,
                                              std::size_t n_verifiers,
                                              Rng& rng);

/// Special-soundness knowledge extractor: given two accepting transcripts
/// that share a commitment but differ in total challenge, recovers x with
/// x = (z - z') / (Σc - Σc') mod q. Throws std::invalid_argument if the
/// transcripts do not satisfy those preconditions.
[[nodiscard]] Nat schnorr_extract(const Group& g, const SchnorrTranscript& t1,
                                  const SchnorrTranscript& t2);

/// HVZK simulator: produces a transcript distributed identically to a real
/// one without knowing x (pick z and the challenges, solve for h). Used by
/// tests to check zero-knowledge mechanics.
[[nodiscard]] SchnorrTranscript schnorr_simulate(const Group& g, const Elem& y,
                                                 std::size_t n_verifiers,
                                                 Rng& rng);

}  // namespace ppgr::crypto
