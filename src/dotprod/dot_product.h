// Secure two-party dot product (Ioannidis, Grama, Atallah — ICPP'02), the
// primitive behind the paper's "secure gain computation" phase (Sec. IV-A).
//
// Two parties hold same-dimension vectors: "Bob" holds w, "Alice" holds v.
// At the end Bob learns w·v and Alice learns nothing. Security rests on the
// adversary facing a linear system with more unknowns than equations.
//
// We run the protocol over a prime field Z_p (all values are field elements
// in Montgomery form, see mpz::FpCtx); p is chosen much larger than any
// genuine integer value so field arithmetic is exact integer arithmetic, and
// the division (a + h·R2/R3)/b is a modular inverse. In the framework
// instantiation (Sec. V, steps 2-4), Bob is participant P_j with
// w' = [vg, ve*ve, ve, 1] and Alice is the initiator P_0 with
// v' = [ρ·wg, -ρ·we, 2ρ(we*ve0), ρ_j]; Bob's output is the masked partial
// gain β_j = ρ·p_j + ρ_j.
//
// Message sizes and the matrix dimension s are exposed so the runtime layer
// can account communication exactly.
#pragma once

#include <vector>

#include "mpz/fp.h"
#include "mpz/rng.h"

namespace ppgr::dotprod {

using mpz::FpCtx;
using mpz::Nat;
using mpz::Rng;

/// Field vectors/matrices: elements of FpCtx in Montgomery form.
using FVec = std::vector<Nat>;
using FMat = std::vector<FVec>;  // row-major

/// Bob -> Alice message: the disguised matrix and masking vectors.
struct BobRound1 {
  FMat qx;      // Q·X, s rows × d cols
  FVec cprime;  // c + R1·R2·f, d entries
  FVec gvec;    // R1·R3·f, d entries
};

/// Alice -> Bob message.
struct AliceRound2 {
  Nat a;  // z - c'·v
  Nat h;  // g·v
};

/// Bob's retained secrets between rounds.
class DotProductBob {
 public:
  /// `w` is Bob's input (field elements); `s` is the disguise dimension
  /// (s >= 2; the paper notes s need not be large — default 8).
  DotProductBob(const FpCtx& field, FVec w, std::size_t s, Rng& rng);

  [[nodiscard]] const BobRound1& round1() const { return msg1_; }
  /// Consumes Alice's reply and returns w·v.
  [[nodiscard]] Nat finish(const AliceRound2& reply) const;

 private:
  const FpCtx& field_;
  BobRound1 msg1_;
  Nat b_;          // Σ_i Q_{i,r}
  Nat r2_over_r3_; // R2/R3
};

/// Alice's single step: given Bob's message and her vector v, produce the
/// reply. Stateless.
[[nodiscard]] AliceRound2 dot_product_alice(const FpCtx& field,
                                            const BobRound1& msg,
                                            const FVec& v);

/// Bytes on the wire for each direction (field elements are sent as
/// fixed-width standard representatives). Exact: equal to the size produced
/// by core::write_bob_round1 / write_alice_round2, including the two varint
/// dimension prefixes of Bob's message.
[[nodiscard]] std::size_t bob_message_bytes(const FpCtx& field, std::size_t s,
                                            std::size_t d);
[[nodiscard]] std::size_t alice_message_bytes(const FpCtx& field);

/// Reference (insecure) dot product for tests.
[[nodiscard]] Nat plain_dot(const FpCtx& field, const FVec& a, const FVec& b);

/// Smallest disguise dimension that keeps Alice's system of equations
/// under-determined for a d-dimensional vector: she observes s·d + 2d
/// values over s^2 + s·d + d + 3 unknowns (Q, X, f, R1..R3), so we need
/// s^2 + 3 > d.
[[nodiscard]] std::size_t recommended_s(std::size_t d);

/// The disguise dimension the framework's phase 1 uses for a d-dimensional
/// vector: recommended_s(d), but at least 8.
[[nodiscard]] std::size_t disguise_dim(std::size_t d);

}  // namespace ppgr::dotprod
