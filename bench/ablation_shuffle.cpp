// Ablation: where does the unlinkable-comparison phase spend its time?
//
// (1) Splits one step-8 chain hop into its three components — partial
//     decryption, exponent randomization, permutation — per group.
// (2) Prices the step-7 ciphertext re-randomization this implementation
//     adds (fresh randomness before a comparison set leaves its computing
//     party; see DESIGN.md) against the rest of the comparison, quantifying
//     the cost of that security fix.
#include <cstdio>

#include "benchcore/model.h"
#include "crypto/elgamal.h"
#include "runtime/metrics.h"

namespace {

constexpr auto now_s = ppgr::runtime::metrics_now_seconds;

template <typename F>
double time_per_call(F&& body, int iters) {
  body();
  const double t0 = now_s();
  for (int i = 0; i < iters; ++i) body();
  return (now_s() - t0) / iters;
}

}  // namespace

int main() {
  using namespace ppgr;
  using benchcore::TablePrinter;

  std::printf("Ablation: step-8 hop component costs per ciphertext\n\n");
  TablePrinter table({"group", "partial-dec", "exp-rand", "rerand (step7)",
                      "full hop"});
  for (const auto gid : {group::GroupId::kEcP192, group::GroupId::kEcP256,
                         group::GroupId::kDl1024, group::GroupId::kDl2048}) {
    const auto g = group::make_group(gid);
    mpz::ChaChaRng rng{9};
    const auto kp = crypto::keygen(*g, rng);
    const group::FixedBaseTable y{*g, kp.y};
    auto ct = crypto::encrypt_exp(*g, y, mpz::Nat{1}, rng);
    const mpz::Nat r = g->random_nonzero_scalar(rng);

    const double pd =
        time_per_call([&] { (void)crypto::partial_decrypt(*g, kp.x, ct); }, 12);
    const double er =
        time_per_call([&] { (void)crypto::exp_randomize(*g, ct, r); }, 12);
    const double rr = time_per_call(
        [&] { (void)crypto::rerandomize(*g, y, ct, rng); }, 12);
    const double full = time_per_call(
        [&] {
          (void)crypto::exp_randomize(
              *g, crypto::partial_decrypt(*g, kp.x, ct), r);
        },
        12);
    table.row({g->name(), TablePrinter::fmt_seconds(pd),
               TablePrinter::fmt_seconds(er), TablePrinter::fmt_seconds(rr),
               TablePrinter::fmt_seconds(full)});
  }
  std::printf(
      "\nExp-randomize costs ~2 exponentiations vs partial decryption's 1;\n"
      "the step-7 re-randomization adds ~2 more per ciphertext produced.\n");
  return 0;
}
