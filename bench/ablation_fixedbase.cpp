// Ablation: fixed-base (comb) exponentiation vs generic double-and-add,
// for both fixed bases the protocol exponentiates:
//   - the generator g: every ElGamal encryption computes g^r;
//   - the joint public key y (phase 2's shared base): every encryption and
//     every compare-circuit re-randomization computes y^r, served by the
//     run's FixedBaseTable over y through Group::exp_fixed.
// The second table also sweeps the window width to show the memory/speed
// trade-off documented in group/fixed_base.h. Both time the group's own
// scalar comb, the one the protocol runs for a lone exponentiation:
// exp_g, and exp_fixed through a table over y.
#include <cstdio>

#include "benchcore/model.h"
#include "group/fixed_base.h"
#include "runtime/metrics.h"

namespace {
constexpr auto now_s = ppgr::runtime::metrics_now_seconds;
}  // namespace

int main() {
  using namespace ppgr;
  using benchcore::TablePrinter;
  std::printf("Ablation: generator exponentiation, comb table vs generic\n\n");
  TablePrinter table({"group", "generic exp", "fixed-base", "speedup"});
  for (const auto gid : {group::GroupId::kEcP192, group::GroupId::kEcP256,
                         group::GroupId::kDl1024, group::GroupId::kDl2048,
                         group::GroupId::kDl3072}) {
    const auto g = group::make_group(gid);
    mpz::ChaChaRng rng{13};
    const auto gen = g->generator();
    const auto s = g->random_nonzero_scalar(rng);
    (void)g->exp_g(s);  // build the table outside the timing
    const int iters = 16;
    double t0 = now_s();
    for (int i = 0; i < iters; ++i) (void)g->exp(gen, s);
    const double generic = (now_s() - t0) / iters;
    t0 = now_s();
    for (int i = 0; i < iters; ++i) (void)g->exp_g(s);
    const double fixed = (now_s() - t0) / iters;
    char speedup[16];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", generic / fixed);
    table.row({g->name(), TablePrinter::fmt_seconds(generic),
               TablePrinter::fmt_seconds(fixed), speedup});
  }
  std::printf("\nThe framework model prices fixed-base and variable-base "
              "exponentiations\nseparately (OpCounts::gexps vs exps).\n");

  // Phase-2 shared base: a windowed table over the joint ElGamal key y.
  // Unlike the generator table (built once per group, amortized over
  // everything), this one is built per session — the build cost matters,
  // so it is reported alongside the per-exp win.
  std::printf("\nAblation: shared-base (joint key y) exponentiation, "
              "windowed table vs generic\n\n");
  TablePrinter table2({"group", "w", "build", "generic exp", "table exp",
                       "speedup", "break-even"});
  for (const auto gid : {group::GroupId::kEcP192, group::GroupId::kDl1024,
                         group::GroupId::kDl2048}) {
    const auto g = group::make_group(gid);
    mpz::ChaChaRng rng{14};
    // Stand-in joint key: any non-generator element works — the table only
    // sees an opaque base.
    const auto y = g->exp_g(g->random_nonzero_scalar(rng));
    const auto s = g->random_nonzero_scalar(rng);
    const int iters = 16;
    double t0 = now_s();
    for (int i = 0; i < iters; ++i) (void)g->exp(y, s);
    const double generic = (now_s() - t0) / iters;
    for (const std::size_t w : {std::size_t{2}, std::size_t{4},
                                std::size_t{6}}) {
      t0 = now_s();
      const group::FixedBaseTable table{*g, y, g->order().bit_length(), w};
      const double build = now_s() - t0;
      t0 = now_s();
      for (int i = 0; i < iters; ++i) (void)g->exp_fixed(table, s);
      const double fixed = (now_s() - t0) / iters;
      char wbuf[8], speedup[16], breakeven[24];
      std::snprintf(wbuf, sizeof(wbuf), "%zu", w);
      std::snprintf(speedup, sizeof(speedup), "%.1fx", generic / fixed);
      // Exps after which the build has paid for itself.
      std::snprintf(breakeven, sizeof(breakeven), "%.0f exps",
                    build / (generic - fixed > 0 ? generic - fixed : 1e-12));
      table2.row({g->name(), wbuf, TablePrinter::fmt_seconds(build),
                  TablePrinter::fmt_seconds(generic),
                  TablePrinter::fmt_seconds(fixed), speedup, breakeven});
    }
  }
  std::printf("\nA fig2a-preset session answers n(n-1)*l re-randomizations "
              "from one table\n(e.g. n=16, l=35: 8400 y^r exps), far past "
              "every break-even above.\n");
  return 0;
}
