// Honest-execution simulator for Shamir-based multiparty computation.
//
// This is the substrate of the paper's baseline "SS framework": BGW/GRR
// multiplication with degree reduction (Gennaro–Rabin–Rabin), joint random
// sharings, the square-root trick for joint random *bits*, the
// public-vs-bitwise-shared less-than circuit, the Nishide–Ohta-style
// comparison built from three half-range tests, and (in mpc_sort.h) the
// sorting network on top.
//
// The engine simulates all n parties in-process (the HBC model makes honest
// execution sufficient for both correctness tests and cost accounting) and
// meters everything the paper's Sec. VI-B analysis talks about:
// multiplication-protocol invocations, openings, communication rounds and
// bytes.
//
// Two modes:
//  - kReal: shares are computed; results are correct; counters are exact for
//    the execution (including randomized retries).
//  - kCountOnly: no share arithmetic at all; counters advance as if every
//    randomized retry succeeded on the first try (the expected case; see
//    EXPERIMENTS.md). This mode prices protocols at parameter scales where
//    full execution would take hours — the SS counterpart of
//    benchcore::model_he_ops for the HE frameworks.
#pragma once

#include <cstdint>
#include <vector>

#include "sss/shamir.h"

namespace ppgr::sss {

struct MpcCosts {
  std::uint64_t mults = 0;       // GRR multiplication invocations
  std::uint64_t opens = 0;       // reconstructions toward all parties
  std::uint64_t deals = 0;       // dealer sharings
  std::uint64_t rounds = 0;      // sequential communication rounds
  std::uint64_t bytes = 0;       // field-element bytes on the wire (total)
  std::uint64_t rand_bits = 0;   // joint random bits generated
  std::uint64_t comparisons = 0; // less_than invocations

  MpcCosts& operator+=(const MpcCosts& o);
  friend MpcCosts operator-(MpcCosts a, const MpcCosts& b);
};

class MpcEngine {
 public:
  enum class Mode { kReal, kCountOnly };

  /// n parties, threshold t (max colluders), requires n >= 2t+1 for
  /// multiplication (the degree-reduction constraint the paper cites when
  /// noting SS tolerates fewer colluders than its own protocol).
  MpcEngine(const FpCtx& f, std::size_t n, std::size_t t, Rng& rng,
            Mode mode = Mode::kReal);

  [[nodiscard]] const FpCtx& field() const { return f_; }
  [[nodiscard]] std::size_t parties() const { return n_; }
  [[nodiscard]] std::size_t threshold() const { return t_; }
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] const MpcCosts& costs() const { return costs_; }
  void reset_costs() { costs_ = MpcCosts{}; }

  // --- sharing and opening ---
  /// Dealer-based input sharing (1 round).
  [[nodiscard]] ShareVec input(const Nat& secret);
  /// Public constant as a degenerate (degree-0) sharing. Free.
  [[nodiscard]] ShareVec constant(const Nat& value) const;
  /// Open a shared value to all parties (1 round).
  [[nodiscard]] Nat open(const ShareVec& x);

  // --- linear operations (local, free) ---
  [[nodiscard]] ShareVec add(const ShareVec& a, const ShareVec& b) const;
  [[nodiscard]] ShareVec sub(const ShareVec& a, const ShareVec& b) const;
  [[nodiscard]] ShareVec add_const(const ShareVec& a, const Nat& c) const;
  [[nodiscard]] ShareVec mul_const(const ShareVec& a, const Nat& c) const;
  [[nodiscard]] ShareVec neg(const ShareVec& a) const;

  // --- interactive primitives ---
  /// GRR multiplication with degree reduction (1 round).
  [[nodiscard]] ShareVec mul(const ShareVec& a, const ShareVec& b);
  /// Batch of independent multiplications in one parallel round.
  [[nodiscard]] std::vector<ShareVec> mul_many(
      std::span<const std::pair<ShareVec, ShareVec>> pairs);
  /// Jointly generated uniform random sharing (1 round).
  [[nodiscard]] ShareVec rand_share();
  /// k joint random bits via the square-root trick, batched (3 rounds).
  [[nodiscard]] std::vector<ShareVec> rand_bits_many(std::size_t k);
  [[nodiscard]] ShareVec rand_bit() { return rand_bits_many(1)[0]; }

  // --- comparison toolbox (Nishide–Ohta style) ---
  /// Bitwise-shared uniform random r in [0, p): bits (LSB first) plus the
  /// composed value Σ 2^i b_i.
  struct BitwiseRandom {
    std::vector<ShareVec> bits;
    ShareVec value;
  };
  [[nodiscard]] BitwiseRandom rand_bitwise();
  /// Shared bit [c < r] for public c and bitwise-shared r.
  [[nodiscard]] ShareVec bit_lt_public(const Nat& c,
                                       std::span<const ShareVec> r_bits);
  /// Shared bit x mod 2.
  [[nodiscard]] ShareVec lsb(const ShareVec& x);
  /// Shared bit [x < p/2].
  [[nodiscard]] ShareVec half_test(const ShareVec& x);
  /// Shared bit [a < b], for a, b whose difference magnitude is < p/2.
  [[nodiscard]] ShareVec less_than(const ShareVec& a, const ShareVec& b);

 private:
  void charge_round(std::uint64_t messages);
  [[nodiscard]] bool counting() const { return mode_ == Mode::kCountOnly; }

  const FpCtx& f_;
  std::size_t n_;
  std::size_t t_;
  Rng& rng_;
  Mode mode_;
  MpcCosts costs_;
  std::vector<Nat> lambda_all_;  // Lagrange coefficients at 0 for points 1..n
};

}  // namespace ppgr::sss
