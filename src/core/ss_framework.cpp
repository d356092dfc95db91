#include "core/ss_framework.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "core/party_driver.h"
#include "mpz/prime.h"

namespace ppgr::core {

const FpCtx& ss_field_for_beta_bits(std::size_t l) {
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<FpCtx>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[l];
  if (!slot) {
    // Deterministic seed per l keeps benchmarks reproducible.
    mpz::ChaChaRng rng{0x55AA0000u + l};
    slot = std::make_unique<FpCtx>(mpz::random_prime(l + 2, rng));
  }
  return *slot;
}

SsFrameworkResult run_ss_framework(const SsFrameworkConfig& cfg,
                                   const AttrVec& v0, const AttrVec& w,
                                   const std::vector<AttrVec>& infos,
                                   Rng& rng) {
  const FrameworkConfig& base = cfg.base;
  SsFrameworkResult run = launch(base, &cfg, v0, w, infos, rng);
  if (run.dropped_parties.empty()) return run;
  // The SS sort additionally needs the threshold to stay feasible:
  // n' >= 2t'+1.
  return degrade<SsFrameworkResult>(
      run, base, infos,
      [&](const FrameworkConfig& sub, const std::vector<AttrVec>& sub_infos) {
        return run_ss_framework(
            {.base = sub,
             .threshold = std::min(cfg.threshold, (sub.n - 1) / 2)},
            v0, w, sub_infos, rng);
      });
}

}  // namespace ppgr::core
