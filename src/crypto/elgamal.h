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
#pragma once

#include "group/group.h"

namespace ppgr::crypto {

using group::Elem;
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
[[nodiscard]] Ciphertext encrypt(const Group& g, const Elem& y, const Elem& m,
                                 Rng& rng);
[[nodiscard]] Elem decrypt(const Group& g, const Nat& x, const Ciphertext& ct);

// --- exponential (additive-homomorphic) ElGamal ---
[[nodiscard]] Ciphertext encrypt_exp(const Group& g, const Elem& y,
                                     const Nat& m, Rng& rng);
/// g^m as recovered by decryption (the "m cannot be extracted" form).
[[nodiscard]] Elem decrypt_exp(const Group& g, const Nat& x,
                               const Ciphertext& ct);
/// True iff the plaintext is zero (g^m == 1) — the only decryption the
/// ranking phase needs.
[[nodiscard]] bool decrypts_to_zero(const Group& g, const Nat& x,
                                    const Ciphertext& ct);

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
[[nodiscard]] Ciphertext rerandomize(const Group& g, const Elem& y,
                                     const Ciphertext& ct, Rng& rng);

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

/// Serialized size of a ciphertext (the S_c of Sec. VI-B).
[[nodiscard]] std::size_t ciphertext_bytes(const Group& g);

}  // namespace ppgr::crypto
