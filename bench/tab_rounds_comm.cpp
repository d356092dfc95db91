// Sec. VI-B analysis table: communication rounds, per-participant
// communication volume, and multiplication/exponentiation counts, ours vs
// the SS framework.
//
// Paper claims to reproduce:
//  - our framework: O(n) communication rounds; per-participant communication
//    O(l * S_c * n^2) bits; O(l^2 n + l n^2 λ) multiplications.
//  - SS framework: O((279l+5) n (log n)^2)-ish rounds (one per secure
//    multiplication along the network's critical path) and
//    O(l t n^2 (log n)^2) multiplications.
#include <cstdio>

#include "benchcore/model.h"

int main() {
  using namespace ppgr;
  using benchcore::TablePrinter;
  const auto spec = benchcore::paper_default_spec();
  const auto ec = group::make_group(group::GroupId::kEcP192);
  mpz::ChaChaRng rng{55};
  const auto ec_costs = benchcore::calibrate_group(*ec, rng);

  std::printf("Sec VI-B: rounds and communication, ours (ecc-p192) vs SS "
              "(l = %zu)\n\n", spec.beta_bits());
  TablePrinter table({"n", "our rounds", "ss rounds", "our MB/party",
                      "ss MB/party", "our exps/party", "ss mults"});
  for (const std::size_t n : {10u, 25u, 40u, 55u, 70u}) {
    const std::uint64_t seed = 2000 + n;
    const auto counts = benchcore::count_he_framework(spec, n, 3, *ec, seed);
    const auto he = benchcore::price_he_counts(counts, ec->name(), ec_costs);
    const auto ss = benchcore::price_ss_framework(spec, n, 3, seed);
    // Per-participant communication: average sent bytes over participants.
    double he_mb = 0;
    for (const runtime::Transfer& t : counts.schedule.transfers)
      if (t.src != 0) he_mb += static_cast<double>(t.bytes);
    he_mb /= static_cast<double>(n) * 1e6;
    const double ss_mb = static_cast<double>(ss.totals.bytes) /
                         static_cast<double>(n) / 1e6;
    char he_mb_s[16], ss_mb_s[16];
    std::snprintf(he_mb_s, sizeof(he_mb_s), "%.2f", he_mb);
    std::snprintf(ss_mb_s, sizeof(ss_mb_s), "%.2f", ss_mb);
    table.row({std::to_string(n), std::to_string(he.rounds),
               std::to_string(ss.parallel_rounds), he_mb_s, ss_mb_s,
               TablePrinter::fmt_count(he.per_participant.exps),
               TablePrinter::fmt_count(ss.totals.mults)});
  }
  std::printf("\nExpected shape: our rounds grow linearly in n; SS rounds "
              "are orders of magnitude larger and grow ~ (log n)^2 faster "
              "per comparison chain.\n");
  return 0;
}
