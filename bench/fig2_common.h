// Shared sweep driver for the four panels of the paper's Fig. 2: each panel
// varies one parameter (n, m, d1, h) and reports per-participant computation
// time for the SS framework, the DL framework (1024-bit safe prime) and the
// ECC framework (P-192, the standardized stand-in for the paper's 160-bit
// curve). Defaults are the paper's: n=25, m=10, d1=15, h=15.
//
// Two SS columns are printed: "ss" prices this repository's lean
// Nishide-Ohta implementation (~15l multiplications per comparison thanks to
// linear-round prefix products), and "ss-279l" prices the constant the paper
// reports for the primitive it cites (279l+5 multiplications per
// comparison) — the comparison the paper actually drew. See EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <string>

#include "bench_flags.h"
#include "benchcore/model.h"
#include "core/framework.h"
#include "sss/mpc_sort.h"

namespace ppgr::bench {

using benchcore::GroupCosts;
using benchcore::HePoint;
using benchcore::SsPoint;
using benchcore::TablePrinter;

struct SweepPoint {
  std::size_t axis_value;
  core::ProblemSpec spec;
  std::size_t n;
};

inline void run_fig2_sweep(const std::string& figure,
                           const std::string& axis_name,
                           const std::vector<SweepPoint>& points) {
  const auto dl = group::make_group(group::GroupId::kDl1024);
  const auto ec = group::make_group(group::GroupId::kEcP192);
  mpz::ChaChaRng rng{2012};
  const GroupCosts dl_costs = benchcore::calibrate_group(*dl, rng);
  const GroupCosts ec_costs = benchcore::calibrate_group(*ec, rng);

  std::printf("%s: per-participant computation time vs %s\n",
              figure.c_str(), axis_name.c_str());
  std::printf(
      "(modeled = exact op counts x calibrated real op costs; see "
      "EXPERIMENTS.md)\n\n");
  TablePrinter table({axis_name, "ss", "ss-279l", "dl-1024", "ecc-p192",
                      "dl/ecc", "he exps/party"});
  for (const auto& p : points) {
    constexpr std::size_t kTopK = 3;
    const std::uint64_t seed = 42 + p.axis_value;
    const SsPoint ss = benchcore::price_ss_framework(p.spec, p.n, kTopK, seed);
    // Price the paper's reported comparison constant on the same substrate:
    // 279l+5 GRR multiplications per comparison.
    const std::size_t l_field = p.spec.beta_bits() + 2;
    const mpz::FpCtx& ss_field = core::ss_field_for_beta_bits(p.spec.beta_bits());
    mpz::ChaChaRng crng{seed + 9};
    const auto ss_costs = benchcore::calibrate_ss(
        ss_field, p.n, std::max<std::size_t>(1, (p.n - 1) / 2), crng);
    const std::size_t comparators =
        sss::comparator_count(sss::batcher_network(p.n));
    const double ss_paper_s =
        static_cast<double>(comparators) * (279.0 * l_field + 5.0) *
            ss_costs.mult_party_s +
        ss.phase1_seconds;

    // One count prices both HE frameworks (identical op sequences).
    const auto counts =
        benchcore::count_he_framework(p.spec, p.n, kTopK, *dl, seed);
    const HePoint dlp = benchcore::price_he_counts(counts, "dl-1024", dl_costs);
    const HePoint ecp = benchcore::price_he_counts(counts, "ecc-p192", ec_costs);
    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "%.1fx",
                  dlp.total_seconds() / ecp.total_seconds());
    table.row({std::to_string(p.axis_value),
               TablePrinter::fmt_seconds(ss.total_seconds()),
               TablePrinter::fmt_seconds(ss_paper_s),
               TablePrinter::fmt_seconds(dlp.total_seconds()),
               TablePrinter::fmt_seconds(ecp.total_seconds()), ratio,
               TablePrinter::fmt_count(dlp.per_participant.exps)});
  }
  std::printf("\n");
}

}  // namespace ppgr::bench
