// Shamir (t, n) secret sharing over a prime field.
//
// Substrate for the paper's baseline: the "SS framework" (Sec. VII) runs the
// Jónsson-style multiparty sort, whose comparisons (Nishide–Ohta) are built
// from exactly these primitives. Party "evaluation points" are 1..n; a value
// is shared by a degree-t polynomial with the secret at 0; any t+1 shares
// reconstruct, any t reveal nothing.
//
// Shares are residues on raw limbs: Montgomery-form field elements of the
// field's width, fully reduced, all n shares of a value in one array
// (ShareVec). Dealing, recombination and opening run on those arrays
// through MontCtx's limb kernels (Shamir); Nat appears only where a value
// enters or leaves (the secret, the opened value, ShareVec::operator[]).
#pragma once

#include <utility>
#include <vector>

#include "mpz/fp.h"
#include "mpz/rng.h"

namespace ppgr::sss {

using mpz::FpCtx;
using mpz::Limb;
using mpz::Nat;
using mpz::Rng;

/// The n shares of one value: party i's share (the evaluation at x = i+1)
/// is share(i), width() limbs. Default-constructed it is empty, the
/// placeholder MpcEngine's counting mode passes around.
class ShareVec {
 public:
  ShareVec() = default;
  /// `parties` zero shares of `width` limbs each.
  ShareVec(std::size_t parties, std::size_t width)
      : width_(width), limbs_(parties * width) {}

  [[nodiscard]] std::size_t size() const {
    return width_ == 0 ? 0 : limbs_.size() / width_;
  }
  [[nodiscard]] Limb* share(std::size_t i) { return &limbs_[i * width_]; }
  [[nodiscard]] const Limb* share(std::size_t i) const {
    return &limbs_[i * width_];
  }
  /// Party i's share as a field element (Montgomery form).
  [[nodiscard]] Nat operator[](std::size_t i) const {
    return Nat::from_limbs({share(i), width_});
  }

  friend bool operator==(const ShareVec&, const ShareVec&) = default;

 private:
  std::size_t width_ = 0;
  std::vector<Limb> limbs_;
};

/// A (t, n) sharing scheme over f on residues of f's width: the powers
/// x^1..x^t of the points x = 1..n and the Lagrange weights at 0 for all n
/// points (GRR recombination) and for 1..t+1 (opening), all in Montgomery
/// form, built once.
class Shamir {
 public:
  /// Throws std::invalid_argument unless 0 <= t < n < p.
  Shamir(const FpCtx& f, std::size_t t, std::size_t n);

  /// Limbs per residue.
  [[nodiscard]] std::size_t width() const { return k_; }

  /// out (n residues) = shares of `secret`: the degree-t polynomial with
  /// coefficients secret, c_1, ..., c_t evaluated at 1..n, where c_1..c_t
  /// are f.random(rng) draws in that order.
  void deal(Limb* out, const Limb* secret, Rng& rng) const;
  /// out = the value the first t+1 of the n residues at `shares` share.
  void open(Limb* out, const Limb* shares) const;
  /// acc (n residues) += λ_i · sub (n residues), λ_i party i+1's Lagrange
  /// weight at 0 among all n points: party i's sub-sharing's part of a GRR
  /// degree reduction.
  void recombine(Limb* acc, std::size_t i, const Limb* sub) const;

  /// out = the field element x (Montgomery form, below p) on width() limbs.
  void load(Limb* out, const Nat& x) const;

 private:
  const FpCtx& f_;
  const mpz::MontCtx& mont_;
  std::size_t t_, n_, k_;
  std::vector<Limb> powers_;       // t rows of n residues: row c-1 = x^c
  std::vector<Limb> lambda_all_;   // n residues: weights of points 1..n
  std::vector<Limb> lambda_open_;  // t+1 residues: weights of points 1..t+1
};

/// Split `secret` (field element) into n shares with threshold t
/// (t+1 shares needed to reconstruct; degree-t polynomial).
[[nodiscard]] ShareVec share_secret(const FpCtx& f, const Nat& secret,
                                    std::size_t t, std::size_t n, Rng& rng);

/// Reconstruct from the first t+1 shares (throws if fewer provided).
[[nodiscard]] Nat reconstruct(const FpCtx& f, const ShareVec& shares,
                              std::size_t t);

/// Reconstruct from an arbitrary subset {(party_index, share)}.
[[nodiscard]] Nat reconstruct_subset(
    const FpCtx& f, std::span<const std::pair<std::size_t, Nat>> points);

}  // namespace ppgr::sss
