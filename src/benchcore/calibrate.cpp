#include "benchcore/calibrate.h"

#include <algorithm>
#include <array>

#include "runtime/metrics.h"

namespace ppgr::benchcore {

namespace {

/// Seconds per call of `body`: the median over kBatches batches, each
/// running `body` (after one warm-up call) until at least kMinBatchS has
/// passed, doubling the calls between clock reads. A burst of host noise
/// moves one batch, not the estimate.
template <typename F>
double time_per_call(F&& body) {
  constexpr std::size_t kBatches = 5;
  constexpr double kMinBatchS = 0.01;
  body();
  std::array<double, kBatches> per_call{};
  for (double& t : per_call) {
    std::size_t calls = 0;
    double elapsed = 0.0;
    const double t0 = runtime::metrics_now_seconds();
    for (std::size_t step = 1; elapsed < kMinBatchS; step *= 2) {
      for (std::size_t i = 0; i < step; ++i) body();
      calls += step;
      elapsed = runtime::metrics_now_seconds() - t0;
    }
    t = elapsed / static_cast<double>(calls);
  }
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

}  // namespace

GroupCosts calibrate_group(const group::Group& g, mpz::Rng& rng) {
  using group::Elem;
  const Elem a = g.exp_g(g.random_nonzero_scalar(rng));
  const Elem b = g.exp_g(g.random_nonzero_scalar(rng));
  const mpz::Nat s = g.random_nonzero_scalar(rng);

  GroupCosts costs;
  Elem sink = a;
  costs.mul_s = time_per_call([&] { sink = g.mul(sink, b); });
  costs.exp_s = time_per_call([&] { sink = g.exp(a, s); });
  costs.gexp_s = time_per_call([&] { sink = g.exp_g(s); });
  costs.inv_s = time_per_call([&] { sink = g.inv(a); });
  costs.serialize_s = time_per_call([&] { (void)g.serialize(a); });
  // Keep `sink` alive so the loops aren't optimized away.
  if (g.is_identity(sink) && g.is_identity(a)) costs.mul_s += 0.0;
  return costs;
}

SsCosts calibrate_ss(const mpz::FpCtx& field, std::size_t n, std::size_t t,
                     mpz::Rng& rng) {
  sss::MpcEngine engine{field, n, t, rng};
  const sss::ShareVec a = engine.input(field.to(mpz::Nat{12345}));
  const sss::ShareVec b = engine.input(field.to(mpz::Nat{6789}));

  SsCosts costs;
  const double n_d = static_cast<double>(n);
  // engine.mul performs all n parties' work -> per-party share is 1/n of the
  // measured time. An opening is work every party repeats in full, and a
  // deal is one party's work in full (price_ss_ops spreads deals over n).
  costs.mult_party_s =
      time_per_call([&] { (void)engine.mul(a, b); }) / n_d;
  costs.open_party_s = time_per_call([&] { (void)engine.open(a); });
  costs.deal_party_s =
      time_per_call([&] { (void)engine.input(field.one()); });
  const mpz::Nat sq = field.sqr(field.to(mpz::Nat{987654321}));
  costs.sqrt_s = time_per_call([&] { (void)field.sqrt(sq); });
  return costs;
}

double price_group_ops(const OpCounts& per_participant,
                       const GroupCosts& costs) {
  return static_cast<double>(per_participant.muls) * costs.mul_s +
         static_cast<double>(per_participant.exps) * costs.exp_s +
         static_cast<double>(per_participant.gexps) * costs.gexp_s +
         static_cast<double>(per_participant.invs) * costs.inv_s +
         static_cast<double>(per_participant.serializations +
                             per_participant.deserializations) *
             costs.serialize_s;
}

double price_ss_ops(const sss::MpcCosts& totals, const SsCosts& costs,
                    std::size_t n) {
  // Interactive primitives are cooperative: every party does ~1/n of the
  // total work metered by the engine, except the sqrt of each random bit
  // which every party computes locally (same opened square).
  const double n_d = static_cast<double>(n);
  return static_cast<double>(totals.mults) * costs.mult_party_s +
         static_cast<double>(totals.opens) * costs.open_party_s +
         static_cast<double>(totals.deals) * costs.deal_party_s / n_d +
         static_cast<double>(totals.rand_bits) * costs.sqrt_s;
}

}  // namespace ppgr::benchcore
