// ElGamal over an abstract prime-order group, in both the standard form
// E(M) = (M·y^r, g^r) and the paper's "modified" exponential form
// E(m) = (g^m·y^r, g^r) (Sec. IV-D), which is additively homomorphic:
//
//     E(m1) ∘ E(m2) = E(m1 + m2)         (component-wise product)
//     E(m)^k        = E(k·m)             (component-wise exponentiation)
//
// Exponential ElGamal cannot be decrypted to m in general (that would be a
// discrete log), but the framework only ever needs the zero test
// g^m == 1 — exactly as the paper notes.
//
// The distributed variant (Sec. IV-D last paragraph) splits the secret key
// additively: each party holds x_j, the joint public key is y = Π g^{x_j},
// and decryption composes per-party partial decryptions c / c'^{x_j}.
//
// The functions that raise the public key take it as its comb table
// (`y.base()` is the key): a run builds the joint key's table once, and
// every y^r is a Group::exp_fixed through it.
#pragma once

#include "group/fixed_base.h"
#include "group/group.h"

namespace ppgr::crypto {

using group::Elem;
using group::FixedBaseTable;
using group::Group;
using mpz::Nat;
using mpz::Rng;

/// (c, cp) = (payload, g^r) following the paper's (c, c') notation.
struct Ciphertext {
  Elem c;
  Elem cp;
};

struct KeyPair {
  Nat x;   // private
  Elem y;  // public, g^x
};

[[nodiscard]] KeyPair keygen(const Group& g, Rng& rng);

/// Joint public key y = Π y_j for distributed ElGamal.
[[nodiscard]] Elem joint_public_key(const Group& g, std::span<const Elem> ys);

// --- standard ElGamal ---
[[nodiscard]] Ciphertext encrypt(const Group& g, const FixedBaseTable& y,
                                 const Elem& m, Rng& rng);
[[nodiscard]] Elem decrypt(const Group& g, const Nat& x, const Ciphertext& ct);

// --- exponential (additive-homomorphic) ElGamal ---
[[nodiscard]] Ciphertext encrypt_exp(const Group& g, const FixedBaseTable& y,
                                     const Nat& m, Rng& rng);
/// encrypt_exp over a batch with caller-drawn randomizers: out[i] =
/// (g^ms[i] · y^r[i], g^r[i]), the ciphertext encrypt_exp forms when it
/// draws r[i] (each in [1, q)). Every g^m, y^r and g^r of the batch comes
/// from one Group::exp_g_many, one exp_fixed_many and one exp_g_many. All
/// spans have out.size() elements (std::invalid_argument otherwise).
/// Records kElGamalEncrypt once per ciphertext, each sample an equal share
/// of the batch's latency.
void encrypt_exp_many(const Group& g, const FixedBaseTable& y,
                      std::span<const Nat> ms, std::span<const Nat> r,
                      std::span<Ciphertext> out);
/// g^m as recovered by decryption (the "m cannot be extracted" form).
[[nodiscard]] Elem decrypt_exp(const Group& g, const Nat& x,
                               const Ciphertext& ct);
/// True iff the plaintext is zero (g^m == 1) — the only decryption the
/// ranking phase needs. Tested as c == cp^x, with no division.
[[nodiscard]] bool decrypts_to_zero(const Group& g, const Nat& x,
                                    const Ciphertext& ct);
/// How many of `cts` decrypt to zero: decrypts_to_zero over the whole span,
/// with every cp^x from one Group::exp_many. Counts kElGamalDecrypt once per
/// ciphertext and records the span's latency as one histogram sample.
[[nodiscard]] std::size_t count_zero_decryptions(
    const Group& g, const Nat& x, std::span<const Ciphertext> cts);

// --- homomorphic operators (exponential form) ---
/// E(m1) ∘ E(m2) = E(m1+m2).
[[nodiscard]] Ciphertext ct_add(const Group& g, const Ciphertext& a,
                                const Ciphertext& b);
/// E(m1) ∘ E(m2)^{-1} = E(m1-m2).
[[nodiscard]] Ciphertext ct_sub(const Group& g, const Ciphertext& a,
                                const Ciphertext& b);
/// E(m)^k = E(k·m).
[[nodiscard]] Ciphertext ct_scale(const Group& g, const Ciphertext& ct,
                                  const Nat& k);
/// Adds a *public* constant without fresh randomness: (c·g^k, c').
[[nodiscard]] Ciphertext ct_add_plain(const Group& g, const Ciphertext& ct,
                                      const Nat& k);
/// Multiplies in a fresh encryption of zero, refreshing the randomness.
[[nodiscard]] Ciphertext rerandomize(const Group& g, const FixedBaseTable& y,
                                     const Ciphertext& ct, Rng& rng);
/// rerandomize over a batch with caller-drawn randomizers: cts[i] becomes
/// (c · y^r[i], cp · g^r[i]), what rerandomize returns when it draws r[i].
/// The batch's y^r and g^r come from one Group::exp_fixed_many and one
/// exp_g_many. cts and r have the same size (std::invalid_argument
/// otherwise). Records kElGamalRerandomize once per ciphertext, each sample
/// an equal share of the batch's latency.
void rerandomize_many(const Group& g, const FixedBaseTable& y,
                      std::span<Ciphertext> cts, std::span<const Nat> r);

// --- distributed decryption building blocks (framework step 8) ---
/// Removes one key layer: (c / c'^{x_j}, c'). After every holder of a key
/// share has applied this, c holds g^m.
[[nodiscard]] Ciphertext partial_decrypt(const Group& g, const Nat& x_j,
                                         const Ciphertext& ct);
/// Raises both components to r: plaintext m becomes r·m (so zero stays zero
/// and any nonzero value becomes uniformly random — the paper's
/// randomization trick in step 8).
[[nodiscard]] Ciphertext exp_randomize(const Group& g, const Ciphertext& ct,
                                       const Nat& r);

}  // namespace ppgr::crypto
