// Abstract prime-order group interface.
//
// The paper's framework (Sec. IV-B) needs a cyclic group of prime order q in
// which the decisional Diffie-Hellman problem is hard, and evaluates two
// instantiations: "DL" (the order-q group of a safe prime p = 2q + 1, here
// Z_p*/{±1}, isomorphic to the quadratic residues mod p; see
// schnorr_group.h) and "ECC" (a prime-order elliptic-curve group). All
// protocol code (ElGamal, Schnorr proofs, the unlinkable comparison phase)
// is written against this interface so the two instantiations — plus the
// test-only mock group and the metering decorator — are interchangeable at
// runtime.
//
// Group notation is multiplicative throughout, matching the paper: `mul` is
// the group operation and `exp` is repeated application (scalar
// multiplication for curves).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpz/nat.h"
#include "mpz/rng.h"

namespace ppgr::group {

using mpz::Nat;
using mpz::Rng;

/// Opaque group element. Representation is owned by the concrete Group:
/// Schnorr groups use `a` (either representative of the class {x, -x}, in
/// Montgomery form); elliptic curves use (a, b, c) as Jacobian (X, Y, Z)
/// with `infinity` flagging the identity.
/// Elements must only be combined through the Group that created them.
struct Elem {
  Nat a;
  Nat b;
  Nat c;
  bool infinity = false;
};

class FixedBaseTable;  // group/fixed_base.h

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
  /// Batch form of serialize: writes the concatenated canonical encodings
  /// of *xs[i] (element_bytes() each) into `out`, which must be exactly
  /// xs.size() * element_bytes() long (std::invalid_argument otherwise);
  /// byte-identical to serializing one by one. The default loops.
  /// SchnorrGroup converts each residue out of Montgomery form on limbs
  /// and writes |x| in place; EcGroup normalizes the whole batch to affine
  /// with one field inversion instead of one per point; MeteredGroup counts
  /// xs.size() serializations and forwards. Pointers, so a caller's
  /// ciphertexts serialize without copying their elements. exp_many /
  /// dual_exp_many below follow the same pattern.
  virtual void serialize_into(std::span<const Elem* const> xs,
                              std::span<std::uint8_t> out) const;
  /// serialize_into over `xs`, into a fresh buffer.
  [[nodiscard]] virtual std::vector<std::uint8_t> serialize_many(
      std::span<const Elem> xs) const;
  /// Inverse of serialize; throws std::invalid_argument on malformed input
  /// (including points off the curve, and Schnorr encodings outside [1, q]).
  [[nodiscard]] virtual Elem deserialize(std::span<const std::uint8_t> bytes) const = 0;
  /// Batch form of deserialize: *out[i] = deserialize of the i-th
  /// element_bytes() of `bytes`, whose size must be exactly out.size() *
  /// element_bytes() (std::invalid_argument otherwise). Elements decode in
  /// order, and the first malformed one throws what deserialize throws on
  /// it. The default loops; SchnorrGroup decodes on limbs, and
  /// MeteredGroup counts out.size() deserializations and forwards.
  virtual void deserialize_into(std::span<const std::uint8_t> bytes,
                                std::span<Elem* const> out) const;
  /// Length of the canonical encoding in bytes. Drives the communication
  /// accounting (S_c in the paper's Sec. VI-B is 2 * element_bytes()).
  [[nodiscard]] virtual std::size_t element_bytes() const = 0;

  /// Fused x^ex · y^ey — the shape of every ElGamal ciphertext fold in
  /// phase 2. SchnorrGroup runs MontCtx::dual_exp, an interleaved Straus
  /// ladder on raw Montgomery residues, and EcGroup the same schedule on
  /// stack Jacobian points; MockGroup multiplies two exps. Decorators
  /// forward it to the wrapped group so those ladders stay reachable
  /// (MeteredGroup counts it as one call).
  [[nodiscard]] virtual Elem dual_exp(const Elem& x, const Nat& ex,
                                      const Elem& y, const Nat& ey) const = 0;

  /// Batch forms of exp and dual_exp: out[i] = exp(bases[i], scalars[i]),
  /// resp. dual_exp(xs[i], exs[i], ys[i], eys[i]), element-identical to the
  /// one-by-one calls. Every span has out.size() elements
  /// (std::invalid_argument otherwise), and out must not overlap an input.
  /// The defaults loop. SchnorrGroup hands whole batches to MontCtx's batch
  /// ladders (8 ladders per AVX-512 IFMA vector on 4-limb moduli), and
  /// EcGroup overrides both forms with its own 8-lane Jacobian ladders on
  /// the same CPUs (the same Jacobian triples as its exp / dual_exp);
  /// MockGroup keeps the loops. MeteredGroup counts out.size() calls of
  /// kGroupExp / kGroupDualExp and forwards.
  virtual void exp_many(std::span<const Elem> bases,
                        std::span<const Nat> scalars,
                        std::span<Elem> out) const;
  virtual void dual_exp_many(std::span<const Elem> xs,
                             std::span<const Nat> exs,
                             std::span<const Elem> ys,
                             std::span<const Nat> eys,
                             std::span<Elem> out) const;

  /// Batch form of inv: out[i] = inv(xs[i]), element-identical to the
  /// one-by-one calls. xs and out have the same size
  /// (std::invalid_argument otherwise) and must not overlap. The default
  /// loops, and EcGroup keeps it: its inv is a point negation, cheaper than
  /// the three products per element of Montgomery's trick. SchnorrGroup
  /// overrides it with MontCtx::inv_many (one binary invmod per batch);
  /// MeteredGroup counts out.size() kGroupInv and forwards, so the trick
  /// stays reachable through the decorator.
  virtual void inv_many(std::span<const Elem> xs, std::span<Elem> out) const;

  // --- conveniences shared by all groups ---
  /// x / y.
  [[nodiscard]] Elem div(const Elem& x, const Elem& y) const {
    return mul(x, inv(y));
  }
  /// g^scalar. Concrete groups override this with their comb over a
  /// generator table — the framework's phase 2 evaluates g^r thousands of
  /// times per run (every encryption and re-randomization), and a
  /// precomputed generator table removes all squarings from that path
  /// (bench/ablation_fixedbase quantifies the gain).
  [[nodiscard]] virtual Elem exp_g(const Nat& scalar) const {
    return exp(generator(), scalar);
  }
  /// table.base()^scalar through the comb `table`, built over this group or
  /// the group it decorates — the y^r of every ElGamal encryption and
  /// re-randomization, whose key table the run builds once. exp_fixed_many
  /// over one scalar.
  [[nodiscard]] Elem exp_fixed(const FixedBaseTable& table,
                               const Nat& scalar) const;
  /// Batch forms of exp_fixed and exp_g: out[i] = exp_fixed(table,
  /// scalars[i]), resp. exp_g(scalars[i]). scalars and out have the same
  /// size (std::invalid_argument otherwise). The exp_fixed_many default is
  /// exp(table.base(), scalars[i]), the same element; it serves groups that
  /// pack no table (MockGroup) and decorators that forward no comb form.
  /// The exp_g_many default loops over exp_g. SchnorrGroup and EcGroup run
  /// one comb over the packed table: lane-wise combs on AVX-512 IFMA CPUs
  /// (4-limb moduli, resp. every shipped curve), a last batch padded with
  /// zero scalars, and a remainder of one on a scalar comb with one product
  /// per nonzero digit, each element the same residue, resp. Jacobian
  /// triple, whichever runs it (DESIGN.md Sec. 5e). MeteredGroup counts
  /// out.size() kGroupExp plus out.size() kAccelFixedBaseExp, resp.
  /// out.size() kGroupExpG, and forwards.
  virtual void exp_fixed_many(const FixedBaseTable& table,
                              std::span<const Nat> scalars,
                              std::span<Elem> out) const;
  virtual void exp_g_many(std::span<const Nat> scalars,
                          std::span<Elem> out) const;
  /// A finished comb table's entries (T[k][d] at k * 2^w + d) in the layout
  /// this group's combs read, or empty when it runs no comb (the default).
  /// FixedBaseTable calls it once and keeps only the result, as its
  /// packed(); decorators forward it uncounted.
  [[nodiscard]] virtual std::vector<mpz::Limb> pack_table(
      std::span<const Elem> entries) const {
    (void)entries;
    return {};
  }
  /// Uniform scalar in [0, q).
  [[nodiscard]] Nat random_scalar(Rng& rng) const { return rng.below(order()); }
  /// Uniform scalar in [1, q).
  [[nodiscard]] Nat random_nonzero_scalar(Rng& rng) const {
    return rng.nonzero_below(order());
  }
  /// Elements this group's batch forms have set on 8-lane IFMA paths (not
  /// those run or rerun on a scalar path): a diagnostic of which path a call
  /// took. Groups without lanes, decorators included, read 0.
  [[nodiscard]] std::size_t lane_elements() const {
    return lane_elements_.load(std::memory_order_relaxed);
  }

 protected:
  void count_lanes(std::size_t elements) const {
    if (elements != 0)
      lane_elements_.fetch_add(elements, std::memory_order_relaxed);
  }

 private:
  alignas(64) mutable std::atomic<std::size_t> lane_elements_{0};
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
/// The group's name(), e.g. "dl-1024", from a constant table (no group is
/// built).
[[nodiscard]] std::string to_string(GroupId id);
/// Inverse of to_string; throws std::invalid_argument naming `name` when no
/// GroupId has it.
[[nodiscard]] GroupId parse_group_id(std::string_view name);

}  // namespace ppgr::group
