// Fig. 3(a): per-participant computation time vs security level at n = 70.
// Following the NIST equivalence the paper cites (FIPS 140-2 IG): 80-bit
// symmetric ~ DL-1024 ~ ECC-160, 112-bit ~ DL-2048 ~ ECC-224, 128-bit ~
// DL-3072 ~ ECC-256. We use the standardized P-192/P-224/P-256 curves for
// the ECC side (P-192 is the closest NIST curve to "160-bit ECC").
// Paper observation to reproduce: ECC is faster at equal security and its
// advantage grows with the security level.
#include <cstdio>

#include "bench_flags.h"
#include "benchcore/model.h"

int main(int argc, char** argv) {
  using namespace ppgr;
  using benchcore::TablePrinter;
  bench::BenchFlags flags = bench::parse_bench_flags(argc, argv);
  struct Level {
    int sym_bits;
    group::GroupId dl;
    group::GroupId ec;
  };
  const Level levels[] = {
      {80, group::GroupId::kDl1024, group::GroupId::kEcP192},
      {112, group::GroupId::kDl2048, group::GroupId::kEcP224},
      {128, group::GroupId::kDl3072, group::GroupId::kEcP256},
  };
  const std::size_t n = 70;
  const auto spec = benchcore::paper_default_spec();

  // All parameter sets execute the identical operation sequence; one count
  // prices every level.
  const auto counts = benchcore::count_he_framework(
      spec, n, 3, *group::make_group(group::GroupId::kDl1024), 7);

  std::printf("Fig 3(a): per-participant computation time vs security level "
              "(n = %zu)\n\n", n);
  TablePrinter table({"security", "dl", "dl time", "ecc", "ecc time",
                      "dl/ecc"});
  mpz::ChaChaRng rng{33};
  for (const Level& level : levels) {
    const auto dl = group::make_group(level.dl);
    const auto ec = group::make_group(level.ec);
    const auto dl_costs = benchcore::calibrate_group(*dl, rng);
    const auto ec_costs = benchcore::calibrate_group(*ec, rng);
    const auto dlp = benchcore::price_he_counts(counts, dl->name(), dl_costs);
    const auto ecp = benchcore::price_he_counts(counts, ec->name(), ec_costs);
    const double ratio = dlp.total_seconds() / ecp.total_seconds();
    char rbuf[16];
    std::snprintf(rbuf, sizeof(rbuf), "%.1fx", ratio);
    table.row({std::to_string(level.sym_bits) + "-bit", dl->name(),
               TablePrinter::fmt_seconds(dlp.total_seconds()), ec->name(),
               TablePrinter::fmt_seconds(ecp.total_seconds()), rbuf});
  }
  std::printf("\nExpected shape: ECC faster at every level; the DL/ECC gap "
              "widens as the security level rises.\n\n");
  if (flags.e2e_requested()) bench::run_parallel_e2e(flags);
  return 0;
}
