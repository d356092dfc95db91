#include "sss/shamir.h"

#include <algorithm>
#include <stdexcept>

namespace ppgr::sss {

namespace {

// Scratch for one residue: the widest field a MontCtx takes.
using Residue = Limb[mpz::MontCtx::kCiosMaxLimbs];

// Lagrange weights at 0 of the points xs (1-based party indices), one
// residue each: λ_i = Π_{j != i} x_j / (x_j - x_i), the denominators
// inverted in one batch. Repeated points leave a zero denominator:
// std::domain_error.
std::vector<Limb> lagrange_at_zero(const FpCtx& f,
                                   std::span<const std::size_t> xs) {
  const mpz::MontCtx& mont = f.mont();
  const std::size_t k = mont.limbs(), m = xs.size();
  std::vector<Limb> pts(m * k), num(m * k);
  std::vector<Nat> den(m);
  for (std::size_t i = 0; i < m; ++i)
    f.to(Nat{xs[i]}).to_limbs(&pts[i * k], k);
  for (std::size_t i = 0; i < m; ++i) {
    Residue n = {}, d = {}, diff = {};
    f.one().to_limbs(n, k);
    f.one().to_limbs(d, k);
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      mont.mul_limbs(n, n, &pts[j * k]);
      mont.sub_limbs(diff, &pts[j * k], &pts[i * k]);
      mont.mul_limbs(d, d, diff);
    }
    std::copy_n(n, k, &num[i * k]);
    den[i] = Nat::from_limbs({d, k});
  }
  const std::vector<Nat> inv = f.inv_many(den);
  for (std::size_t i = 0; i < m; ++i) {
    Residue di = {};
    inv[i].to_limbs(di, k);
    mont.mul_limbs(&num[i * k], &num[i * k], di);
  }
  return num;
}

std::vector<std::size_t> first_points(std::size_t count) {
  std::vector<std::size_t> xs(count);
  for (std::size_t i = 0; i < count; ++i) xs[i] = i + 1;
  return xs;
}

}  // namespace

Shamir::Shamir(const FpCtx& f, std::size_t t, std::size_t n)
    : f_(f), mont_(f.mont()), t_(t), n_(n), k_(mont_.limbs()) {
  if (n == 0 || t >= n)
    throw std::invalid_argument("Shamir: need 0 <= t < n");
  if (Nat{n} >= f.p())
    throw std::invalid_argument("Shamir: field too small for n parties");
  powers_.resize(t_ * n_ * k_);
  for (std::size_t j = 0; j < n_ && t_ > 0; ++j)
    load(&powers_[j * k_], f_.to(Nat{j + 1}));
  for (std::size_t c = 1; c < t_; ++c)
    for (std::size_t j = 0; j < n_; ++j)
      mont_.mul_limbs(&powers_[(c * n_ + j) * k_],
                      &powers_[((c - 1) * n_ + j) * k_], &powers_[j * k_]);
  lambda_all_ = lagrange_at_zero(f_, first_points(n_));
  lambda_open_ = lagrange_at_zero(f_, first_points(t_ + 1));
}

void Shamir::load(Limb* out, const Nat& x) const { x.to_limbs(out, k_); }

void Shamir::deal(Limb* out, const Limb* secret, Rng& rng) const {
  // Σ_c c_c x^c over the precomputed powers: the same t products per point
  // as Horner's rule, with each coefficient consumed as it is drawn.
  for (std::size_t j = 0; j < n_; ++j) std::copy_n(secret, k_, &out[j * k_]);
  Residue coeff = {};
  for (std::size_t c = 0; c < t_; ++c) {
    f_.random_limbs(rng, coeff);
    mont_.mul_add_limbs(out, coeff, &powers_[c * n_ * k_], n_);
  }
}

void Shamir::open(Limb* out, const Limb* shares) const {
  Residue prod = {};
  std::fill_n(out, k_, Limb{0});
  for (std::size_t i = 0; i <= t_; ++i) {
    mont_.mul_limbs(prod, &lambda_open_[i * k_], &shares[i * k_]);
    mont_.add_limbs(out, out, prod);
  }
}

void Shamir::recombine(Limb* acc, std::size_t i, const Limb* sub) const {
  mont_.mul_add_limbs(acc, &lambda_all_[i * k_], sub, n_);
}

ShareVec share_secret(const FpCtx& f, const Nat& secret, std::size_t t,
                      std::size_t n, Rng& rng) {
  const Shamir scheme{f, t, n};
  ShareVec shares(n, scheme.width());
  Residue s = {};
  scheme.load(s, secret);
  scheme.deal(shares.share(0), s, rng);
  return shares;
}

Nat reconstruct(const FpCtx& f, const ShareVec& shares, std::size_t t) {
  if (shares.size() < t + 1)
    throw std::invalid_argument("reconstruct: not enough shares");
  std::vector<std::pair<std::size_t, Nat>> pts;
  pts.reserve(t + 1);
  for (std::size_t i = 0; i <= t; ++i) pts.emplace_back(i + 1, shares[i]);
  return reconstruct_subset(f, pts);
}

Nat reconstruct_subset(const FpCtx& f,
                       std::span<const std::pair<std::size_t, Nat>> points) {
  if (points.empty())
    throw std::invalid_argument("reconstruct_subset: no points");
  std::vector<std::size_t> xs;
  xs.reserve(points.size());
  for (const auto& [x, _] : points) xs.push_back(x);
  const std::vector<Limb> lambda = lagrange_at_zero(f, xs);
  const mpz::MontCtx& mont = f.mont();
  const std::size_t k = mont.limbs();
  Residue acc = {}, share = {}, prod = {};
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].second.to_limbs(share, k);
    mont.mul_limbs(prod, &lambda[i * k], share);
    mont.add_limbs(acc, acc, prod);
  }
  return Nat::from_limbs({acc, k});
}

}  // namespace ppgr::sss
