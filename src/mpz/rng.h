// Cryptographically-strong pseudo random number generation.
//
// ChaCha20 in counter mode, seedable either deterministically (tests,
// reproducible benchmarks) or from the operating system. All randomness in
// the library flows through the Rng interface so protocols can be replayed
// bit-for-bit under test.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "mpz/nat.h"

namespace ppgr::mpz {

/// Abstract source of random bytes. Implementations must be
/// indistinguishable-from-random for the library's security arguments to
/// carry over (Sec. III-B of the paper assumes a computationally bounded
/// adversary).
class Rng {
 public:
  virtual ~Rng() = default;
  virtual void fill(std::span<std::uint8_t> out) = 0;

  /// Uniform in [0, 2^64).
  std::uint64_t next_u64();
  /// Uniform in [0, bound) via rejection sampling; bound must be nonzero.
  std::uint64_t below_u64(std::uint64_t bound);
  /// Uniform Nat with exactly `bits` random bits (top bit may be 0).
  Nat bits(std::size_t bits);
  /// Uniform Nat in [0, bound) via rejection sampling; bound must be nonzero.
  /// Runs below_limbs, so it draws exactly the bytes bits() would.
  Nat below(const Nat& bound);
  /// below() on raw limbs: out = a uniform value in [0, bound) on
  /// bound.size() limbs, where bound is a normalized nonzero limb vector
  /// (top limb nonzero) and out.size() == bound.size(). Each attempt fills
  /// the bound's bit length rounded up to bytes, big-endian with the excess
  /// top bits masked off, exactly as bits() does.
  void below_limbs(std::span<const Limb> bound, std::span<Limb> out);
  /// Uniform Nat in [1, bound).
  Nat nonzero_below(const Nat& bound);
  /// Uniform random bool.
  bool coin() { return next_u64() & 1u; }
};

/// ChaCha20-based deterministic RNG (RFC 8439 block function).
class ChaChaRng final : public Rng {
 public:
  /// Deterministic: expands a 64-bit seed into the 256-bit key.
  explicit ChaChaRng(std::uint64_t seed);
  /// Full 256-bit key (stream 0).
  explicit ChaChaRng(const std::array<std::uint8_t, 32>& key);
  /// Keyed substream: the 64-bit `stream` id becomes the ChaCha20 nonce, so
  /// every id yields an independent keystream under the same key. This is
  /// the counter-mode stream splitting behind StreamFamily.
  ChaChaRng(const std::array<std::uint8_t, 32>& key, std::uint64_t stream);
  /// Seeded from the operating system (/dev/urandom).
  static ChaChaRng from_os();

  void fill(std::span<std::uint8_t> out) override;

 private:
  void refill();

  std::array<std::uint32_t, 16> state_{};
  std::array<std::uint8_t, 64> buf_{};
  std::size_t pos_ = 64;  // exhausted
};

/// Splits one parent Rng into arbitrarily many independent substreams.
///
/// The constructor draws a single 256-bit family key from the parent; after
/// that, `stream(id)` is a pure function of (key, id) — the order in which
/// streams are created or consumed cannot influence their output. This is
/// the determinism anchor of the parallel execution engine: the framework
/// derives one stream per (party, task) so that a run with N threads draws
/// bit-identical randomness to a run with 1 thread (see DESIGN.md,
/// "Threading model & determinism").
class StreamFamily {
 public:
  /// Draws the 32-byte family key from `parent` (exactly one fill call).
  explicit StreamFamily(Rng& parent);

  /// Independent deterministic stream for `id`. Thread-safe (const).
  [[nodiscard]] ChaChaRng stream(std::uint64_t id) const {
    return ChaChaRng{key_, id};
  }

 private:
  std::array<std::uint8_t, 32> key_{};
};

}  // namespace ppgr::mpz
