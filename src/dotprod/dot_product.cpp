#include "dotprod/dot_product.h"

#include <stdexcept>

#include "runtime/metrics.h"
#include "runtime/wire.h"

namespace ppgr::dotprod {

namespace {

FVec random_fvec(const FpCtx& f, std::size_t d, Rng& rng) {
  FVec v(d);
  for (auto& x : v) x = f.random(rng);
  return v;
}

}  // namespace

Nat plain_dot(const FpCtx& field, const FVec& a, const FVec& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("plain_dot: dimension mismatch");
  Nat acc = field.zero();
  for (std::size_t i = 0; i < a.size(); ++i)
    acc = field.add(acc, field.mul(a[i], b[i]));
  return acc;
}

DotProductBob::DotProductBob(const FpCtx& field, FVec w, std::size_t s,
                             Rng& rng)
    : field_(field) {
  const runtime::ScopedOpTimer timer(runtime::CryptoOp::kDotprodQuery);
  if (s < 2) throw std::invalid_argument("DotProductBob: s must be >= 2");
  const std::size_t d = w.size();
  if (d == 0) throw std::invalid_argument("DotProductBob: empty vector");

  // Pick Q (s×s random) and the embedding row r, retrying until the column
  // sum b = Σ_i Q_{i,r} is nonzero (needed for the final division).
  const std::size_t r = rng.below_u64(s);
  FMat q;
  for (;;) {
    q.clear();
    for (std::size_t i = 0; i < s; ++i) q.push_back(random_fvec(field, s, rng));
    b_ = field.zero();
    for (std::size_t i = 0; i < s; ++i) b_ = field.add(b_, q[i][r]);
    if (!field.is_zero(b_)) break;
  }

  // X: row r is w, other rows random.
  FMat x(s);
  for (std::size_t i = 0; i < s; ++i)
    x[i] = (i == r) ? std::move(w) : random_fvec(field, d, rng);
  if (x[r].size() != d) throw std::logic_error("DotProductBob: internal");

  // QX.
  msg1_.qx.assign(s, FVec(d, field.zero()));
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t k = 0; k < s; ++k) {
      const Nat& qik = q[i][k];
      if (field.is_zero(qik)) continue;
      for (std::size_t j = 0; j < d; ++j) {
        msg1_.qx[i][j] = field.add(msg1_.qx[i][j], field.mul(qik, x[k][j]));
      }
    }
  }

  // c = Σ_{i != r} (Σ_j Q_{j,i}) x_i   (column sums of Q weight the rows of X).
  FVec colsum(s, field.zero());
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < s; ++i)
      colsum[i] = field.add(colsum[i], q[j][i]);
  FVec c(d, field.zero());
  for (std::size_t i = 0; i < s; ++i) {
    if (i == r) continue;
    for (std::size_t j = 0; j < d; ++j)
      c[j] = field.add(c[j], field.mul(colsum[i], x[i][j]));
  }

  // Masks: c' = c + R1·R2·f, g = R1·R3·f.
  const Nat r1 = field.random_nonzero(rng);
  const Nat r2 = field.random_nonzero(rng);
  const Nat r3 = field.random_nonzero(rng);
  const FVec f = random_fvec(field, d, rng);
  const Nat r1r2 = field.mul(r1, r2);
  const Nat r1r3 = field.mul(r1, r3);
  msg1_.cprime.resize(d);
  msg1_.gvec.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    msg1_.cprime[j] = field.add(c[j], field.mul(r1r2, f[j]));
    msg1_.gvec[j] = field.mul(r1r3, f[j]);
  }
  r2_over_r3_ = field.div(r2, r3);
}

Nat DotProductBob::finish(const AliceRound2& reply) const {
  runtime::count_op(runtime::CryptoOp::kDotprodFinish);
  // β = (a + h·R2/R3) / b  =  w·v.
  const Nat num = field_.add(reply.a, field_.mul(reply.h, r2_over_r3_));
  return field_.div(num, b_);
}

AliceRound2 dot_product_alice(const FpCtx& field, const BobRound1& msg,
                              const FVec& v) {
  const runtime::ScopedOpTimer timer(runtime::CryptoOp::kDotprodAnswer);
  const std::size_t s = msg.qx.size();
  if (s == 0 || msg.qx[0].size() != v.size() || msg.cprime.size() != v.size() ||
      msg.gvec.size() != v.size())
    throw std::invalid_argument("dot_product_alice: dimension mismatch");
  // z = Σ_i (QX v)_i.
  Nat z = field.zero();
  for (std::size_t i = 0; i < s; ++i)
    z = field.add(z, plain_dot(field, msg.qx[i], v));
  AliceRound2 reply;
  reply.a = field.sub(z, plain_dot(field, msg.cprime, v));
  reply.h = plain_dot(field, msg.gvec, v);
  return reply;
}

std::size_t recommended_s(std::size_t d) {
  std::size_t s = 2;
  while (s * s + 3 <= d) ++s;
  return s;
}

std::size_t disguise_dim(std::size_t d) {
  return std::max<std::size_t>(8, recommended_s(d));
}

std::size_t bob_message_bytes(const FpCtx& field, std::size_t s,
                              std::size_t d) {
  const std::size_t fe = (field.bits() + 7) / 8;
  // varint(s) + varint(d) + QX + c' + g — exactly write_bob_round1's size.
  return runtime::varint_size(s) + runtime::varint_size(d) +
         fe * (s * d + 2 * d);
}

std::size_t alice_message_bytes(const FpCtx& field) {
  const std::size_t fe = (field.bits() + 7) / 8;
  return 2 * fe;  // a and h
}

}  // namespace ppgr::dotprod
