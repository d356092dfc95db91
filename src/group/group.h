// Abstract prime-order group interface.
//
// The paper's framework (Sec. IV-B) needs a cyclic group of prime order q in
// which the decisional Diffie-Hellman problem is hard, and evaluates two
// instantiations: "DL" (quadratic residues modulo a safe prime) and "ECC"
// (a prime-order elliptic-curve group). All protocol code (ElGamal, Schnorr
// proofs, the unlinkable comparison phase) is written against this interface
// so the two instantiations — plus the mock group of the benchmark cost model
// and the metering / acceleration decorators — are interchangeable at
// runtime.
//
// Group notation is multiplicative throughout, matching the paper: `mul` is
// the group operation and `exp` is repeated application (scalar
// multiplication for curves).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mpz/nat.h"
#include "mpz/rng.h"

namespace ppgr::group {

using mpz::Nat;
using mpz::Rng;

/// Opaque group element. Representation is owned by the concrete Group:
/// Schnorr groups use `a` (a residue in Montgomery form); elliptic curves use
/// (a, b, c) as Jacobian (X, Y, Z) with `infinity` flagging the identity.
/// Elements must only be combined through the Group that created them.
struct Elem {
  Nat a;
  Nat b;
  Nat c;
  bool infinity = false;
};

class Group {
 public:
  virtual ~Group() = default;

  /// Human-readable name, e.g. "dl-1024" or "ecc-p192".
  [[nodiscard]] virtual std::string name() const = 0;
  /// The prime group order q.
  [[nodiscard]] virtual const Nat& order() const = 0;
  /// Security parameter in bits of the *underlying field/modulus* (λ in the
  /// paper's Sec. VI-B analysis: 1024 for DL-1024, 192 for P-192, ...).
  [[nodiscard]] virtual std::size_t field_bits() const = 0;

  [[nodiscard]] virtual Elem generator() const = 0;
  [[nodiscard]] virtual Elem identity() const = 0;
  [[nodiscard]] virtual Elem mul(const Elem& x, const Elem& y) const = 0;
  [[nodiscard]] virtual Elem exp(const Elem& base, const Nat& scalar) const = 0;
  [[nodiscard]] virtual Elem inv(const Elem& x) const = 0;
  [[nodiscard]] virtual bool eq(const Elem& x, const Elem& y) const = 0;
  [[nodiscard]] virtual bool is_identity(const Elem& x) const = 0;

  /// Canonical byte encoding (fixed length element_bytes()).
  [[nodiscard]] virtual std::vector<std::uint8_t> serialize(const Elem& x) const = 0;
  /// Batch form of serialize: the concatenated canonical encodings of `xs`
  /// (element_bytes() each), byte-identical to serializing one by one. The
  /// default loops; EcGroup overrides it with a batched-inversion affine
  /// normalization (one field inversion for the whole batch instead of one
  /// per point), and MeteredGroup overrides it to keep reporting xs.size()
  /// serializations.
  [[nodiscard]] virtual std::vector<std::uint8_t> serialize_many(
      std::span<const Elem> xs) const {
    std::vector<std::uint8_t> out;
    out.reserve(xs.size() * element_bytes());
    for (const Elem& x : xs) {
      const auto one = serialize(x);
      out.insert(out.end(), one.begin(), one.end());
    }
    return out;
  }
  /// Inverse of serialize; throws std::invalid_argument on malformed input
  /// (including points off the curve / non-residues).
  [[nodiscard]] virtual Elem deserialize(std::span<const std::uint8_t> bytes) const = 0;
  /// Length of the canonical encoding in bytes. Drives the communication
  /// accounting (S_c in the paper's Sec. VI-B is 2 * element_bytes()).
  [[nodiscard]] virtual std::size_t element_bytes() const = 0;

  /// Fused x^ex · y^ey — the shape of every ElGamal ciphertext fold in
  /// phase 2. The default (group.cpp) is the generic interleaved Straus
  /// ladder through this group's mul(); EcGroup and MockGroup use it. SchnorrGroup overrides it with
  /// MontCtx::dual_exp, the same ladder on raw Montgomery residues (no
  /// per-step Elem boxing, identical element); decorators forward it to the
  /// wrapped group so that ladder stays reachable (MeteredGroup counts it as
  /// one call).
  [[nodiscard]] virtual Elem dual_exp(const Elem& x, const Nat& ex,
                                      const Elem& y, const Nat& ey) const;

  // --- conveniences shared by all groups ---
  /// x / y.
  [[nodiscard]] Elem div(const Elem& x, const Elem& y) const {
    return mul(x, inv(y));
  }
  /// g^scalar. Concrete groups override this with fixed-base (comb)
  /// exponentiation — the framework's phase 2 evaluates g^r thousands of
  /// times per run (every encryption and re-randomization), and a
  /// precomputed generator table removes all squarings from that path
  /// (bench/ablation_fixedbase quantifies the gain).
  [[nodiscard]] virtual Elem exp_g(const Nat& scalar) const {
    return exp(generator(), scalar);
  }
  /// Uniform scalar in [0, q).
  [[nodiscard]] Nat random_scalar(Rng& rng) const { return rng.below(order()); }
  /// Uniform scalar in [1, q).
  [[nodiscard]] Nat random_nonzero_scalar(Rng& rng) const {
    return rng.nonzero_below(order());
  }
};

/// Named constructors for the configurations evaluated in the paper
/// (Sec. VII: DL framework with 1024/2048/3072-bit safe primes, ECC framework
/// with 160..256-bit curves; we use the NIST P-192/P-224/P-256 curves as the
/// closest standardized equivalents of the "160/224/256-bit ECC group").
enum class GroupId {
  kDl1024,
  kDl2048,
  kDl3072,
  kEcP192,
  kEcP224,
  kEcP256,
  kDlTest256,  // small safe prime for fast unit tests — NOT secure
};

[[nodiscard]] std::unique_ptr<Group> make_group(GroupId id);
[[nodiscard]] std::string to_string(GroupId id);

}  // namespace ppgr::group
