// The paper's comparison baseline: the "SS framework" (Sec. VII).
//
// Phase 1 is identical to the main framework (the secure dot product with
// the initiator produces each participant's masked gain β_j); phase 2 is
// replaced by the Jónsson-style secret-sharing sort: β values are shared
// among the n participants and ranked through a Batcher network of
// Nishide–Ohta comparisons (simulated in one process on the sort host P1,
// which collects every β and returns each party its rank). Phase 3 is the
// same submission step. Both run as the per-party program of
// core/party_driver.h.
//
// Note what this baseline gives up relative to the paper's protocol: the
// complete ranking permutation becomes public (every party sees which party
// holds every rank), and the collusion threshold drops to t < n/2 because
// GRR degree reduction needs 2t+1 honest-behaving parties.
#pragma once

#include "core/framework.h"
#include "sss/mpc_sort.h"

namespace ppgr::core {

/// The framework's result (same fields and contracts as FrameworkResult;
/// comm: every β travels to the sort host and every rank back as real
/// payloads, the sort's own traffic is transmitted per the engine's exact
/// byte meter) plus the sort's metered costs.
struct SsFrameworkResult : FrameworkResult {
  sss::MpcCosts sort_costs;                // exact metered MPC costs
  std::uint64_t parallel_rounds = 0;       // phase-2 parallel rounds
  std::size_t comparators = 0;
};

struct SsFrameworkConfig {
  FrameworkConfig base;     // group is unused; dot_field/spec/n/k are
  std::size_t threshold;    // SS threshold t (max colluders), n >= 2t+1
};

/// Prime field sized for comparing l-bit β values (p > 2^(l+1), so that the
/// Nishide–Ohta |a-b| < p/2 condition holds). Deterministic per l.
[[nodiscard]] const FpCtx& ss_field_for_beta_bits(std::size_t l);

[[nodiscard]] SsFrameworkResult run_ss_framework(const SsFrameworkConfig& cfg,
                                                 const AttrVec& v0,
                                                 const AttrVec& w,
                                                 const std::vector<AttrVec>& infos,
                                                 Rng& rng);

}  // namespace ppgr::core
